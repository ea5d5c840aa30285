//! A deterministic simulated LLM with calibrated imperfections.
//!
//! `SimulatedLlm` answers the WASABI prompts using only *non-structural*
//! evidence from the raw source text — identifier names, comments, string
//! literals, and keyword co-occurrence — never the AST. This mirrors the
//! paper's observation that fuzzy code comprehension finds retry where
//! program analysis cannot (queues, state machines, loops without keyword
//! names), and it reproduces GPT-4's documented error modes:
//!
//! - **recall cliff on large files** (§4.2: 100 retry loops missed, located
//!   in files ~2× the size of detected ones);
//! - **poll / spin-lock / retry-named-parameter false positives** (§4.2–4.3);
//! - **single-file blindness**: a delay implemented by a helper defined in a
//!   different file is invisible (§4.3);
//! - **occasional miscomprehension** of caps and delays (§4.3).
//!
//! All randomness is a pure function of `(seed, file path, question)`, so
//! every run over the same corpus gives identical answers.

use crate::model::{Answer, LanguageModel, Usage};
use crate::prompts::{Prompt, Question};
use std::collections::HashMap;

/// What the model "remembers" about a file after reading it once.
#[derive(Debug, Clone, Default)]
struct FileComprehension {
    signals: TextSignals,
    /// Methods whose body region reads like retry, in source order.
    retry_methods: Vec<String>,
}

/// Splits raw text into `(method name, body text)` regions by scanning for
/// `method NAME(` / `test NAME(` declarations — a purely textual view.
fn method_regions(text: &str) -> Vec<(String, String)> {
    let mut decls: Vec<(usize, String)> = Vec::new();
    for keyword in ["method ", "test "] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(keyword) {
            let at = from + pos;
            let rest = &text[at + keyword.len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '$')
                .collect();
            if !name.is_empty() && rest[name.len()..].trim_start().starts_with('(') {
                decls.push((at, name));
            }
            from = at + keyword.len();
        }
    }
    decls.sort();
    let mut out = Vec::new();
    for (i, (start, name)) in decls.iter().enumerate() {
        let end = decls.get(i + 1).map(|(e, _)| *e).unwrap_or(text.len());
        out.push((name.clone(), text[*start..end].to_string()));
    }
    out
}

/// Tunable error-rate profile for the simulated model.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// File size (bytes) beyond which the model starts missing retry.
    pub large_file_bytes: usize,
    /// How fast the miss probability grows past the threshold (bytes per
    /// +100% probability unit).
    pub miss_slope_bytes: usize,
    /// Upper bound on the large-file miss probability.
    pub max_miss_prob: f64,
    /// Probability of labeling a poll/spin file as retry (Q1 false
    /// positive).
    pub poll_fp_rate: f64,
    /// Probability of labeling a file that merely parses retry-named
    /// parameters as retry.
    pub param_fp_rate: f64,
    /// Probability of flipping a Yes answer to Q2/Q3 into No (manufactures
    /// a false WHEN finding — the paper's "miscomprehension" FP mode).
    pub flip_yes_rate: f64,
    /// Probability of flipping a No answer to Q2/Q3 into Yes (loses a true
    /// finding). Lower: the paper's detector errs toward over-reporting.
    pub flip_no_rate: f64,
    /// Probability Q4 fails to recognize poll behaviour it should exclude.
    pub q4_miss_rate: f64,
}

impl Default for SimProfile {
    fn default() -> Self {
        SimProfile {
            large_file_bytes: 6_000,
            miss_slope_bytes: 5_000,
            max_miss_prob: 0.95,
            poll_fp_rate: 0.35,
            param_fp_rate: 0.25,
            flip_yes_rate: 0.09,
            flip_no_rate: 0.03,
            q4_miss_rate: 0.45,
        }
    }
}

/// Non-structural signals extracted from raw source text.
#[derive(Debug, Clone, Default)]
pub struct TextSignals {
    /// Retry-family keyword anywhere (identifier, comment, or string).
    pub retry_keyword: bool,
    /// A `catch (` occurs.
    pub has_catch: bool,
    /// A loop keyword occurs.
    pub has_loop: bool,
    /// A queue re-enqueue (`.put(`/`.putDelayed(`) occurs *after* a catch.
    pub reenqueue_after_catch: bool,
    /// A `switch`/`case` state machine occurs.
    pub has_state_machine: bool,
    /// A sleep / delayed-scheduling call occurs.
    pub has_sleep: bool,
    /// A backoff/delay helper is *called*.
    pub calls_delay_helper: bool,
    /// A backoff/delay helper with a sleep is *defined in this file*.
    pub defines_delay_helper: bool,
    /// Poll / spin-lock / compare-and-set vocabulary occurs.
    pub has_poll: bool,
    /// A comparison close to a cap-ish identifier occurs.
    pub has_cap_comparison: bool,
    /// Error-code vocabulary ("error code", "errcode", "err_") occurs.
    pub has_error_code: bool,
    /// File size in bytes.
    pub bytes: usize,
}

impl TextSignals {
    /// Extracts signals from raw source text.
    pub fn extract(text: &str) -> TextSignals {
        let lower = text.to_lowercase();
        let retry_keyword = ["retry", "retries", "retrying", "reattempt", "resubmit", "reschedule"]
            .iter()
            .any(|k| lower.contains(k));
        let has_catch = lower.contains("catch (") || lower.contains("catch(");
        let has_loop = lower.contains("while (")
            || lower.contains("while(")
            || lower.contains("for (")
            || lower.contains("for(");
        let catch_pos = lower.find("catch");
        let reenqueue_after_catch = match catch_pos {
            Some(pos) => {
                let rest = &lower[pos..];
                rest.contains(".put(") || rest.contains(".putdelayed(")
            }
            None => false,
        };
        let has_state_machine = lower.contains("switch (") || lower.contains("switch(");
        let has_sleep = lower.contains("sleep(")
            || lower.contains(".putdelayed(")
            || lower.contains("schedule");
        let calls_delay_helper = ["backoff(", "delay(", "pause(", "waitquietly("]
            .iter()
            .any(|k| lower.contains(k));
        let defines_delay_helper = ["method backoff", "method delay", "method pause", "method waitquietly"]
            .iter()
            .any(|k| lower.contains(k))
            && lower.contains("sleep(");
        let has_poll = ["poll", "compareandset", "spinlock", "spin_", "busywait"]
            .iter()
            .any(|k| lower.contains(k));
        let has_cap_comparison = cap_comparison(&lower);
        let has_error_code =
            lower.contains("error code") || lower.contains("errcode") || lower.contains("err_");
        TextSignals {
            retry_keyword,
            has_catch,
            has_loop,
            reenqueue_after_catch,
            has_state_machine,
            has_sleep,
            calls_delay_helper,
            defines_delay_helper,
            has_poll,
            has_cap_comparison,
            has_error_code,
            bytes: text.len(),
        }
    }

    /// The core fuzzy judgement: does this text *read* like it performs
    /// retry? Requires error checking (a catch) plus a re-execution shape.
    pub fn reads_like_retry(&self) -> bool {
        if !self.has_catch {
            return false;
        }
        // Queue re-enqueue after error handling reads as retry even without
        // the keyword; loops and state machines need the vocabulary.
        if self.reenqueue_after_catch {
            return true;
        }
        self.retry_keyword && (self.has_loop || self.has_state_machine)
    }

    /// Error-code retry: a loop that checks error codes and retries, with
    /// no exceptions involved (§4.2's untestable structures).
    pub fn reads_like_errcode_retry(&self) -> bool {
        self.retry_keyword && self.has_loop && self.has_error_code && !self.has_catch
    }
}

/// Finds a `<`/`>` comparison within 48 bytes of a cap-ish identifier.
///
/// The window is searched as bytes: its edges may fall inside a multi-byte
/// character, and the keywords are ASCII, so no match can use such a byte.
fn cap_comparison(lower: &str) -> bool {
    const CAPISH: [&[u8]; 6] = [b"max", b"limit", b"cap", b"attempt", b"retries", b"budget"];
    let bytes = lower.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'<' || *b == b'>' {
            let start = i.saturating_sub(48);
            let end = (i + 48).min(bytes.len());
            let window = &bytes[start..end];
            if CAPISH.iter().any(|k| window.windows(k.len()).any(|w| w == *k)) {
                return true;
            }
        }
    }
    false
}

/// The deterministic simulated LLM.
pub struct SimulatedLlm {
    seed: u64,
    profile: SimProfile,
    usage: Usage,
    /// Per-file comprehension cache (Q2–Q4 refer to the file sent with Q1).
    memory: HashMap<String, FileComprehension>,
}

impl SimulatedLlm {
    /// Creates a model with the given seed and error profile.
    pub fn new(seed: u64, profile: SimProfile) -> Self {
        SimulatedLlm {
            seed,
            profile,
            usage: Usage::default(),
            memory: HashMap::new(),
        }
    }

    /// Creates a model with the default profile.
    pub fn with_seed(seed: u64) -> Self {
        SimulatedLlm::new(seed, SimProfile::default())
    }

    /// Deterministic pseudo-random draw in `[0, 1)` keyed by file and tag.
    fn draw(&self, file_path: &str, tag: &str) -> f64 {
        // FNV-1a over (seed, path, tag).
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut mix = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        };
        for byte in self.seed.to_le_bytes() {
            mix(byte);
        }
        for byte in file_path.bytes() {
            mix(byte);
        }
        for byte in tag.bytes() {
            mix(byte);
        }
        // One extra scramble round for avalanche.
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51afd7ed558ccd);
        hash ^= hash >> 33;
        (hash >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&self, file_path: &str, tag: &str, probability: f64) -> bool {
        self.draw(file_path, tag) < probability
    }

    fn large_file_miss(&self, file_path: &str, bytes: usize) -> bool {
        if bytes <= self.profile.large_file_bytes {
            return false;
        }
        let over = (bytes - self.profile.large_file_bytes) as f64;
        let prob = (over / self.profile.miss_slope_bytes as f64).min(self.profile.max_miss_prob);
        self.chance(file_path, "large-file-miss", prob)
    }

    fn signals_for(&mut self, prompt: &Prompt) -> TextSignals {
        if !prompt.file_contents.is_empty() {
            let signals = TextSignals::extract(&prompt.file_contents);
            // Every region is a substring of the file, so each signal a
            // region shows the file shows too (`reenqueue_after_catch`
            // included: the file's first catch is no later than the
            // region's). A region that reads like retry therefore makes
            // the file read like retry, and an error-code-retry region
            // makes the file read like one of the two (the file may add
            // the catch the region lacks). Files that read like neither
            // have no retry methods, and skip the split.
            let reads_like_retry =
                signals.reads_like_retry() || signals.reads_like_errcode_retry();
            let retry_methods = if reads_like_retry {
                method_regions(&prompt.file_contents)
                    .into_iter()
                    .filter(|(_, body)| {
                        let signals = TextSignals::extract(body);
                        signals.reads_like_retry() || signals.reads_like_errcode_retry()
                    })
                    .map(|(name, _)| name)
                    .collect()
            } else {
                Vec::new()
            };
            self.memory.insert(
                prompt.file_path.clone(),
                FileComprehension {
                    signals,
                    retry_methods,
                },
            );
        }
        self.memory
            .get(&prompt.file_path)
            .map(|c| c.signals.clone())
            .unwrap_or_default()
    }

    fn answer_q1(&mut self, prompt: &Prompt) -> Answer {
        let signals = self.signals_for(prompt);
        if signals.reads_like_retry() || signals.reads_like_errcode_retry() {
            // Large files overwhelm the model: it misses the retry entirely.
            if self.large_file_miss(&prompt.file_path, signals.bytes) {
                return Answer::No;
            }
            return Answer::Yes;
        }
        // False-positive modes: poll/spin loops and retry-named parameter
        // parsing sometimes read like retry.
        if signals.has_poll
            && signals.has_loop
            && self.chance(&prompt.file_path, "poll-fp", self.profile.poll_fp_rate)
        {
            return Answer::Yes;
        }
        if !(signals.has_poll && signals.has_loop)
            && signals.retry_keyword
            && !signals.has_catch
            && self.chance(&prompt.file_path, "param-fp", self.profile.param_fp_rate)
        {
            return Answer::Yes;
        }
        Answer::No
    }

    fn answer_q2(&mut self, prompt: &Prompt) -> Answer {
        let signals = self.signals_for(prompt);
        let mut saw_delay = signals.has_sleep;
        // Single-file blindness: a called delay helper only counts when its
        // definition (with the sleep) is in this same file.
        if !saw_delay && signals.calls_delay_helper && signals.defines_delay_helper {
            saw_delay = true;
        }
        let answer = if saw_delay { Answer::Yes } else { Answer::No };
        self.maybe_flip(&prompt.file_path, "q2-flip", answer)
    }

    /// Applies the asymmetric miscomprehension noise.
    fn maybe_flip(&self, file_path: &str, tag: &str, answer: Answer) -> Answer {
        let rate = match answer {
            Answer::Yes => self.profile.flip_yes_rate,
            Answer::No => self.profile.flip_no_rate,
        };
        if self.chance(file_path, tag, rate) {
            flip(answer)
        } else {
            answer
        }
    }

    fn answer_q3(&mut self, prompt: &Prompt) -> Answer {
        let signals = self.signals_for(prompt);
        let answer = if signals.has_cap_comparison {
            Answer::Yes
        } else {
            Answer::No
        };
        self.maybe_flip(&prompt.file_path, "q3-flip", answer)
    }

    fn answer_q4(&mut self, prompt: &Prompt) -> Answer {
        let signals = self.signals_for(prompt);
        if signals.has_poll {
            // Should say Yes (exclude), but sometimes fails to.
            if self.chance(&prompt.file_path, "q4-miss", self.profile.q4_miss_rate) {
                return Answer::No;
            }
            return Answer::Yes;
        }
        Answer::No
    }

    fn answer_methods(&mut self, prompt: &Prompt) -> Vec<String> {
        self.memory
            .get(&prompt.file_path)
            .map(|c| c.retry_methods.clone())
            .unwrap_or_default()
    }
}

fn flip(answer: Answer) -> Answer {
    match answer {
        Answer::Yes => Answer::No,
        Answer::No => Answer::Yes,
    }
}

impl LanguageModel for SimulatedLlm {
    fn ask_yes_no(&mut self, prompt: &Prompt) -> Answer {
        self.usage.record(prompt.chars_sent());
        match prompt.question {
            Question::PerformsRetry => self.answer_q1(prompt),
            Question::SleepsBeforeRetry => self.answer_q2(prompt),
            Question::HasCap => self.answer_q3(prompt),
            Question::PollOrSpin => self.answer_q4(prompt),
            Question::WhichMethods => Answer::No,
        }
    }

    fn ask_methods(&mut self, prompt: &Prompt) -> Vec<String> {
        self.usage.record(prompt.chars_sent());
        self.answer_methods(prompt)
    }

    fn usage(&self) -> Usage {
        self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts;

    #[test]
    fn signals_detect_loop_retry_vocabulary() {
        let s = TextSignals::extract(
            "class C { method run() { for (var retry = 0; retry < max; retry = retry + 1) { \
             try { this.op(); } catch (E e) { sleep(10); } } } }",
        );
        assert!(s.retry_keyword && s.has_catch && s.has_loop);
        assert!(s.has_sleep && s.has_cap_comparison);
        assert!(s.reads_like_retry());
    }

    #[test]
    fn queue_reenqueue_reads_like_retry_without_keyword() {
        let s = TextSignals::extract(
            "class P { method run(q) { while (!q.isEmpty()) { var t = q.take(); \
             try { t.execute(); } catch (E e) { q.put(t); } } } }",
        );
        assert!(!s.retry_keyword);
        assert!(s.reenqueue_after_catch);
        assert!(s.reads_like_retry());
    }

    #[test]
    fn policy_definition_does_not_read_like_retry() {
        let s = TextSignals::extract(
            "class RetryPolicyBuilder { method build(maxRetries) { return new Policy(maxRetries); } }",
        );
        assert!(s.retry_keyword);
        assert!(!s.has_catch);
        assert!(!s.reads_like_retry());
    }

    #[test]
    fn comments_count_as_evidence() {
        // No retry-named identifiers — only a comment.
        let s = TextSignals::extract(
            "class C { method run() { // keep retrying until the broker comes back\n\
             while (true) { try { this.op(); } catch (E e) { } } } }",
        );
        assert!(s.retry_keyword);
        assert!(s.reads_like_retry());
    }

    #[test]
    fn large_files_get_missed_often() {
        let retry_core = "method run() { for (var retry = 0; retry < 9; retry = retry + 1) { \
             try { this.op(); } catch (E e) { sleep(1); } } return null; }";
        let padding = "// unrelated helper code follows\n".repeat(400); // ~12 KB
        let large = format!("class C {{ {retry_core} }}\n{padding}");
        let small = format!("class C {{ {retry_core} }}");
        let mut missed = 0;
        let mut small_missed = 0;
        for seed in 0..100 {
            let mut llm = SimulatedLlm::with_seed(seed);
            let q1 = prompts::q1_performs_retry(&format!("big{seed}.jav"), &large);
            if !llm.ask_yes_no(&q1).is_yes() {
                missed += 1;
            }
            let q1s = prompts::q1_performs_retry(&format!("small{seed}.jav"), &small);
            if !llm.ask_yes_no(&q1s).is_yes() {
                small_missed += 1;
            }
        }
        assert!(missed > 50, "large files should be missed often, got {missed}/100");
        assert_eq!(small_missed, 0, "small files should always be found");
    }

    #[test]
    fn poll_files_are_sometimes_false_positives() {
        let poll = "class Monitor { method watch() { while (true) { \
             var status = this.pollStatus(); if (status == \"done\") { break; } } } \
             method pollStatus() { return \"busy\"; } }";
        let mut yes = 0;
        for seed in 0..200 {
            let mut llm = SimulatedLlm::with_seed(seed);
            let q1 = prompts::q1_performs_retry(&format!("poll{seed}.jav"), poll);
            if llm.ask_yes_no(&q1).is_yes() {
                yes += 1;
            }
        }
        assert!(yes > 30 && yes < 140, "poll FP rate should be moderate, got {yes}/200");
    }

    #[test]
    fn helper_sleep_in_same_file_is_seen_but_not_cross_file() {
        let with_helper = "class C { method run() { while (true) { try { this.op(); } \
             catch (E e) { this.backoff(1); } } } // retry helper\n\
             method backoff(n) { sleep(100 * n); } }";
        let without_helper = "class C { method run() { while (true) { try { this.op(); } \
             catch (E e) { this.backoff(1); } } } // retry helper defined elsewhere\n }";
        let mut llm = SimulatedLlm::new(3, SimProfile { flip_yes_rate: 0.0, ..SimProfile::default() });
        let q1 = prompts::q1_performs_retry("with.jav", with_helper);
        assert!(llm.ask_yes_no(&q1).is_yes());
        assert!(llm.ask_yes_no(&prompts::q2_sleeps_before_retry("with.jav")).is_yes());
        let q1b = prompts::q1_performs_retry("without.jav", without_helper);
        assert!(llm.ask_yes_no(&q1b).is_yes());
        assert!(
            !llm.ask_yes_no(&prompts::q2_sleeps_before_retry("without.jav")).is_yes(),
            "single-file blindness: helper sleep in another file is invisible"
        );
    }

    #[test]
    fn non_ascii_text_around_a_comparison_is_read_not_a_panic() {
        // Multi-byte characters on both sides of `<`, padded so the 48-byte
        // window edges fall both on and inside a character.
        for pad in 0..4 {
            let comment = format!("{}{}", "-".repeat(pad), "é".repeat(40));
            for (bound, capped) in [("limit", true), ("1", false)] {
                let text = format!(
                    "class A {{ // {comment}\n method m(x) {{ return x < {bound}; }} // {}\n}}",
                    "ü".repeat(40)
                );
                assert_eq!(TextSignals::extract(&text).has_cap_comparison, capped, "{text}");
                let mut llm = SimulatedLlm::with_seed(0);
                assert!(!llm.ask_yes_no(&prompts::q1_performs_retry("a.jav", &text)).is_yes());
            }
        }
    }

    #[test]
    fn method_regions_split_by_declaration() {
        let regions = method_regions(
            "class C { method a() { return 1; } method b(x) { return x; } test tC() { assert(true); } }",
        );
        let names: Vec<&str> = regions.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "tC"]);
        assert!(regions[0].1.contains("return 1"));
        assert!(!regions[0].1.contains("return x"));
    }

    #[test]
    fn answers_are_deterministic_per_seed_and_differ_across_seeds() {
        let poll = "class M { method watch() { while (true) { var s = this.poll(); \
             if (s == 1) { break; } } } method poll() { return 1; } }";
        let ask = |seed: u64, path: &str| {
            let mut llm = SimulatedLlm::with_seed(seed);
            llm.ask_yes_no(&prompts::q1_performs_retry(path, poll)).is_yes()
        };
        for path in ["a.jav", "b.jav", "c.jav"] {
            assert_eq!(ask(1, path), ask(1, path));
        }
        // Across 64 paths, at least one seed-1 vs seed-2 disagreement.
        let disagree = (0..64).any(|i| {
            let path = format!("f{i}.jav");
            ask(1, &path) != ask(2, &path)
        });
        assert!(disagree, "different seeds should not be identical everywhere");
    }

    #[test]
    fn usage_is_tracked_per_call() {
        let mut llm = SimulatedLlm::with_seed(0);
        let q1 = prompts::q1_performs_retry("a.jav", "class A { }");
        llm.ask_yes_no(&q1);
        llm.ask_yes_no(&prompts::q3_has_cap("a.jav"));
        let usage = llm.usage();
        assert_eq!(usage.calls, 2);
        assert!(usage.bytes_sent as usize > q1.file_contents.len());
    }
}
