package analysis

import (
	"strings"
	"testing"
)

// FuzzIgnoreDirectiveParse throws arbitrary comment text at the
// //mb:ignore parser. Invariants: never panic; the three-way result is
// coherent (a non-directive has no error; a parsed directive has
// non-empty rules and reason); no comment is both an mb:ignore directive
// and an unknown verb for mb-directive; and a successfully parsed
// directive round-trips through String().
func FuzzIgnoreDirectiveParse(f *testing.F) {
	seeds := []string{
		"//mb:ignore det-time progress line is wall-clock by design",
		"//mb:ignore det-time,det-rand demo harness only",
		"/*mb:ignore err-cmp io.EOF from a Read loop*/",
		"//mb:ignore",
		"//mb:ignore ",
		"//mb:ignore det-time",
		"//mb:ignore det-time,, double comma",
		"//mb:ignore ,det-time leading comma",
		"//mb:ignore ,",
		"//mb:ignore Det-Time uppercase rule",
		"//mb:ignore det_time underscore rule",
		"//mb:ignore det-time\t\ttabs as separators",
		"// mb:ignore det-time spaced marker",
		"//mb:ignored det-time longer verb",
		"//mb:ignore det-time nbsp separator",
		"//mb:ignore det-time\x00nul in reason",
		"/*mb:ignore",
		"mb:ignore det-time no comment marker",
		"////mb:ignore det-time doubled marker",
		"//mb:ignore 🦀 emoji rule",
		"//mb:ignore det-time,det-time duplicate rule",
		strings.Repeat("//mb:ignore a ", 50),
		"//mb:ignore " + strings.Repeat("a,", 300) + "a deep list",
		"//mb:ignore hp-defer retired rule name",
		"//mb:ignore schema-drift retired rule name",
		"//mb:ignore conc-align,det-time retired and kept rules",
		"/*mb:ignore det-time*/",
		"//mb:ignore det-time reason */ with a block terminator",
		"//mb:ignore -- dash-only rule",
		"//mb:ignore 0 digit-only rule",
		"//mb:ignore\u00a0det-time nbsp after the verb",
		"//mb:frobnicate unknown verb",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, ok, err := ParseIgnoreDirective(text)
		if verb, unknown := unknownVerb(text); unknown && ok {
			t.Fatalf("%q is both an mb:ignore directive and unknown verb %q", text, verb)
		}
		if !ok {
			if err != nil {
				t.Fatalf("non-directive %q returned error %v", text, err)
			}
			return
		}
		if err != nil {
			return
		}
		if len(d.Rules) == 0 || d.Reason == "" {
			t.Fatalf("parsed directive from %q has empty rules or reason: %+v", text, d)
		}
		for _, r := range d.Rules {
			if r == "" {
				t.Fatalf("parsed directive from %q has empty rule: %+v", text, d)
			}
		}
		d2, ok2, err2 := ParseIgnoreDirective(d.String())
		if !ok2 || err2 != nil {
			t.Fatalf("canonical form %q of %q does not reparse: ok=%v err=%v", d.String(), text, ok2, err2)
		}
		if d2.String() != d.String() {
			t.Fatalf("round trip unstable: %q -> %q", d.String(), d2.String())
		}
	})
}
