//! Text analysis: tokenisation, stopword removal and light stemming.
//!
//! The analyzer mirrors the behaviour of Lucene's `EnglishAnalyzer` (used by Pyserini's
//! default BM25 configuration) closely enough for ranking parity on the corpora RAGE
//! works with: Unicode-aware lowercasing word segmentation, a small English stopword
//! list, and a conservative suffix stemmer (a light variant of the Porter S1 rules).
//!
//! ## One chain, streamed
//!
//! [`for_each_term`] is the one analysis chain, and [`analyze`] collects its terms.
//! It splits the text into maximal runs of alphanumeric chars and apostrophes and
//! hands each surviving term to a callback as a `&str`, so indexing a document
//! allocates nothing per token:
//!
//! 1. **Lowercase.** An all-ASCII token is copied into one buffer, reused across the
//!    text, and lowercased in place. A token with any non-ASCII char goes through
//!    `str::to_lowercase` on the whole token instead, which keeps Unicode's
//!    context-dependent mappings: Greek final sigma (`ΟΔΟΣ` → `οδος`), and `İ`,
//!    which lowercases to two chars.
//! 2. **Possessive and apostrophes.** One trailing `'s` is stripped
//!    (`Federer's` → `federer`), then every leading and trailing apostrophe.
//! 3. **Stopwords.** An empty term or one of [`ENGLISH_STOPWORDS`] is dropped.
//! 4. **Stem.** A light suffix stemmer drops plural and simple verbal suffixes in
//!    place (see `stem_rule`).
//!
//! Indexing and query analysis both run this chain, so both sides of retrieval always
//! agree on the terms. The allocating chain it replaced (one `String` per surface
//! token and several per normalisation step) is kept in the tests as the differential
//! oracle, checked against every registered scenario corpus and a Unicode edge list.

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
/// Collects [`for_each_term`]; queries are analysed here, documents are indexed
/// through the callback directly.
pub fn analyze(text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    for_each_term(text, |term| terms.push(term.to_owned()));
    terms
}

/// Run the analysis chain over `text`, calling `emit` with each analysed term in
/// text order (see the [module docs](self)). The term borrows a buffer that the next
/// token overwrites.
pub fn for_each_term(text: &str, mut emit: impl FnMut(&str)) {
    for_each_term_in(text, &mut String::new(), &mut emit);
}

/// [`for_each_term`] with a caller-owned buffer, so one buffer serves many texts.
pub(crate) fn for_each_term_in(text: &str, buf: &mut String, emit: &mut impl FnMut(&str)) {
    for token in text.split(|c: char| !(c.is_alphanumeric() || c == '\'')) {
        if token.is_empty() {
            continue;
        }
        buf.clear();
        if token.is_ascii() {
            buf.push_str(token);
            buf.make_ascii_lowercase();
        } else {
            buf.push_str(&token.to_lowercase());
        }
        if let Some(term) = normalize_in_place(buf) {
            emit(term);
        }
    }
}

/// Normalise a lowercased token in place: strip the possessive, trim apostrophes,
/// drop stopwords and stem. Returns the term, or `None` if the token is filtered out.
fn normalize_in_place(buf: &mut String) -> Option<&str> {
    // Strip the possessive before stopword / stemming decisions ("federer's" -> "federer").
    if buf.ends_with("'s") {
        buf.truncate(buf.len() - 2);
    }
    buf.truncate(buf.trim_end_matches('\'').len());
    let start = buf.len() - buf.trim_start_matches('\'').len();
    let term = &buf[start..];
    if term.is_empty() || ENGLISH_STOPWORDS.contains(&term) {
        return None;
    }
    let (drop, append) = stem_rule(term);
    buf.truncate(buf.len() - drop);
    buf.push_str(append);
    Some(&buf[start..])
}

/// A conservative English suffix stemmer (light variant of the Porter step-1 rules),
/// as an edit of the term's end: the number of trailing bytes to drop and the suffix
/// to append.
///
/// It only removes plural and simple verbal suffixes, never rewriting the stem itself,
/// which keeps it safe for proper nouns ("federer", "djokovic") that dominate the RAGE
/// demonstration corpora.
fn stem_rule(t: &str) -> (usize, &'static str) {
    // Never stem very short tokens or tokens with digits (years, counts).
    if t.chars().count() <= 3 || t.bytes().any(|b| b.is_ascii_digit()) {
        return (0, "");
    }
    if t.ends_with("sses") {
        return (2, ""); // -sses -> -ss
    }
    if t.ends_with("ies") {
        return (3, "y");
    }
    if t.ends_with("ss") || t.ends_with("us") || t.ends_with("is") {
        return (0, "");
    }
    for suffix in ["ings", "ing", "ed"] {
        if let Some(stem) = t.strip_suffix(suffix) {
            if stem.chars().count() >= 3 {
                return (suffix.len(), "");
            }
        }
    }
    if let Some(stem) = t.strip_suffix('s') {
        if !stem.ends_with('s') {
            return (1, "");
        }
    }
    (0, "")
}

/// The allocating analysis chain [`for_each_term`] replaced, kept verbatim as its
/// differential oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::ENGLISH_STOPWORDS;

    /// The terms of `text`, one `String` per surface token and per normalisation step.
    pub(crate) fn analyze(text: &str) -> Vec<String> {
        raw_tokens(text)
            .into_iter()
            .filter_map(|tok| normalize(&tok))
            .collect()
    }

    /// Split raw text into surface tokens without normalisation (keeps case, stopwords).
    pub(crate) fn raw_tokens(text: &str) -> Vec<String> {
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

    fn light_stem(token: &str) -> String {
        let t = token;
        let len = t.chars().count();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::index::for_each_document_term;

    /// The stem [`stem_rule`] gives a single lowercased token.
    fn light_stem(token: &str) -> String {
        let (drop, append) = stem_rule(token);
        format!("{}{append}", &token[..token.len() - drop])
    }

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
            oracle::raw_tokens("Coco Gauff, 2023"),
            vec!["Coco", "Gauff", "2023"]
        );
    }

    /// Words that exercise every branch of the chain: Unicode lowercasing, the
    /// possessive and apostrophe rules on ASCII and non-ASCII tokens, stopwords,
    /// digits, and each stem rule with stems at, below and above its minimum length.
    const EDGE_CASES: &[&str] = &[
        "ΟΔΟΣ",
        "ΟΔΟΣ'S",
        "ΣΑΣ",
        "Σ",
        "İstanbul",
        "İİİİs",
        "İNGS",
        "Straße",
        "STRASSE",
        "ß",
        "ẞ",
        "Gaël",
        "Ångström",
        "Zürich's",
        "Ústí",
        "São Paulo",
        "Ελλάδα's",
        "東京大学",
        "Ⅻ",
        "''s",
        "'s",
        "s'",
        "'",
        "''",
        "'tis",
        "'Quoted'",
        "rock'n'roll",
        "don't",
        "O'Brien's",
        "James'",
        "James's",
        "It's",
        "THE",
        "The's",
        "2023s",
        "1990s'",
        "ranked2",
        "A1",
        "classes",
        "masses",
        "sses",
        "ssses",
        "ladies",
        "ies",
        "dies",
        "cities'",
        "glass",
        "status",
        "tennis",
        "analysis",
        "rankings",
        "kings",
        "ings",
        "xings",
        "ranking",
        "king",
        "sing",
        "string",
        "ranked",
        "red",
        "bred",
        "bleed",
        "need",
        "wins",
        "bus",
        "gas",
        "news",
        "naïves",
        "naïvetés",
        "résumés",
        "éés",
        "façades",
        "crêpes",
        "niños",
        "ıs",
        "İs",
        "ǅungla",
        "ΣΑΣ's",
        "Ὀδυσσεύς",
        "\u{0130}\u{0130}\u{0130}ings",
        "ﬁnished",
        "ﬀs",
    ];

    #[test]
    fn for_each_term_matches_the_allocating_chain_on_edge_cases() {
        for word in EDGE_CASES {
            assert_eq!(analyze(word), oracle::analyze(word), "{word:?}");
        }
        let joined = EDGE_CASES.join(" ");
        assert_eq!(analyze(&joined), oracle::analyze(&joined));
        let punctuated = EDGE_CASES.join(", ");
        assert_eq!(analyze(&punctuated), oracle::analyze(&punctuated));
    }

    /// Assert that `for_each_term` over `full_text()`, and the document walk over
    /// title then text, both emit exactly the oracle's terms for every document.
    fn assert_matches_oracle(docs: &[Document]) {
        assert!(!docs.is_empty());
        let mut buf = String::new();
        for doc in docs {
            let full = doc.full_text();
            let expected = oracle::analyze(&full);
            assert_eq!(analyze(&full), expected, "{}", doc.id);
            let mut walked = Vec::new();
            for_each_document_term(doc, &mut buf, |t| walked.push(t.to_owned()));
            assert_eq!(walked, expected, "{}", doc.id);
        }
    }

    /// A dataset corpus as this crate's documents (the datasets crate links its own
    /// build of this crate, so its `Document` is a different type).
    macro_rules! local_docs {
        ($corpus:expr) => {
            $corpus
                .iter()
                .map(|d| Document::new(d.id.clone(), d.title.clone(), d.text.clone()))
                .collect::<Vec<_>>()
        };
    }

    #[test]
    fn for_each_term_matches_the_allocating_chain_on_every_scenario_corpus() {
        let registry = rage_datasets::ScenarioRegistry::builtin();
        for entry in registry.iter() {
            assert_matches_oracle(&local_docs!(entry.build().corpus));
        }
    }

    #[test]
    fn for_each_term_matches_the_allocating_chain_on_the_registry() {
        use rage_datasets::entity_registry::{registry_corpus, EntityRegistryConfig};
        let corpus = registry_corpus(EntityRegistryConfig::default());
        assert_eq!(corpus.len(), 4096);
        assert_matches_oracle(&local_docs!(corpus));
    }
}
