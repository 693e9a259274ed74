//! Text analysis: tokenisation, stopword removal and light stemming.
//!
//! The analyzer mirrors the behaviour of Lucene's `EnglishAnalyzer` (used by Pyserini's
//! default BM25 configuration) closely enough for ranking parity on the corpora RAGE
//! works with: Unicode-aware lowercasing word segmentation, a small English stopword
//! list, and a conservative suffix stemmer (a light variant of the Porter S1 rules).

/// English stopwords removed by the analyzer.
///
/// The list matches Lucene's `EnglishAnalyzer::ENGLISH_STOP_WORDS_SET`.
pub const ENGLISH_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with",
];

/// Split raw text into analysed terms: lowercased, stopwords removed, lightly stemmed.
///
/// Indexing and query analysis both call this one function, so both sides of
/// retrieval always agree on the terms.
pub fn analyze(text: &str) -> Vec<String> {
    raw_tokens(text)
        .into_iter()
        .filter_map(|tok| normalize(&tok))
        .collect()
}

/// Split raw text into surface tokens without normalisation (keeps case, stopwords).
fn raw_tokens(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '\'' {
            current.push(ch);
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Normalise a single surface token; returns `None` if the token is filtered out.
fn normalize(token: &str) -> Option<String> {
    let mut tok = token.to_lowercase();
    // Strip possessive suffix before stopword / stemming decisions ("Federer's" -> "federer").
    if let Some(stripped) = tok.strip_suffix("'s") {
        tok = stripped.to_string();
    }
    tok = tok.trim_matches('\'').to_string();
    if tok.is_empty() || ENGLISH_STOPWORDS.contains(&tok.as_str()) {
        return None;
    }
    tok = light_stem(&tok);
    if tok.is_empty() {
        None
    } else {
        Some(tok)
    }
}

/// A conservative English suffix stemmer (light variant of the Porter step-1 rules).
///
/// It only removes plural and simple verbal suffixes, never rewriting the stem itself,
/// which keeps it safe for proper nouns ("federer", "djokovic") that dominate the RAGE
/// demonstration corpora.
pub fn light_stem(token: &str) -> String {
    let t = token;
    let len = t.chars().count();
    // Never stem very short tokens or tokens with digits (years, counts).
    if len <= 3 || t.chars().any(|c| c.is_ascii_digit()) {
        return t.to_string();
    }
    if let Some(stem) = t.strip_suffix("sses") {
        return format!("{stem}ss");
    }
    if let Some(stem) = t.strip_suffix("ies") {
        return format!("{stem}y");
    }
    if t.ends_with("ss") || t.ends_with("us") || t.ends_with("is") {
        return t.to_string();
    }
    if let Some(stem) = t.strip_suffix("ings") {
        if stem.chars().count() >= 3 {
            return stem.to_string();
        }
    }
    if let Some(stem) = t.strip_suffix("ing") {
        if stem.chars().count() >= 3 {
            return stem.to_string();
        }
    }
    if let Some(stem) = t.strip_suffix("ed") {
        if stem.chars().count() >= 3 {
            return stem.to_string();
        }
    }
    if let Some(stem) = t.strip_suffix('s') {
        if !stem.ends_with('s') {
            return stem.to_string();
        }
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_and_lowercases() {
        let terms = analyze("Roger Federer WON 369 matches!");
        assert_eq!(terms, vec!["roger", "federer", "won", "369", "matche"]);
    }

    #[test]
    fn removes_stopwords() {
        let terms = analyze("the best of the big three");
        assert!(!terms.contains(&"the".to_string()));
        assert!(!terms.contains(&"of".to_string()));
        assert!(terms.contains(&"best".to_string()));
        assert!(terms.contains(&"big".to_string()));
    }

    #[test]
    fn strips_possessive() {
        let terms = analyze("Djokovic's titles");
        assert_eq!(terms, vec!["djokovic", "title"]);
    }

    #[test]
    fn stemmer_plural_rules() {
        assert_eq!(light_stem("matches"), "matche"); // light stemmer: only strips final s
        assert_eq!(light_stem("wins"), "win");
        assert_eq!(light_stem("ladies"), "lady");
        assert_eq!(light_stem("classes"), "class");
        assert_eq!(light_stem("tennis"), "tennis");
        assert_eq!(light_stem("surplus"), "surplus");
    }

    #[test]
    fn stemmer_verbal_rules() {
        assert_eq!(light_stem("ranked"), "rank");
        assert_eq!(light_stem("ranking"), "rank");
        assert_eq!(light_stem("rankings"), "rank");
        // Short stems are preserved.
        assert_eq!(light_stem("ring"), "ring");
        assert_eq!(light_stem("red"), "red");
    }

    #[test]
    fn stemmer_preserves_numbers_and_years() {
        assert_eq!(light_stem("2023s"), "2023s");
        assert_eq!(light_stem("369"), "369");
    }

    #[test]
    fn empty_and_punctuation_only_input() {
        assert!(analyze("").is_empty());
        assert!(analyze("!!! --- ???").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        let terms = analyze("Gaël Monfils était présent");
        assert!(terms.contains(&"gaël".to_string()));
        assert!(terms.contains(&"était".to_string()));
    }

    #[test]
    fn raw_tokens_preserve_case() {
        assert_eq!(
            raw_tokens("Coco Gauff, 2023"),
            vec!["Coco", "Gauff", "2023"]
        );
    }
}
