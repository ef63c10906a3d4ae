package analysis

import (
	"strings"
	"testing"
)

func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		name    string
		text    string
		ok      bool
		wantErr string
		rules   []string
		reason  string
		// unknown is the verb mb-directive reports for a comment that
		// is machine-style //mb:<verb> but not an mb:ignore directive.
		unknown string
	}{
		{
			name:   "single rule",
			text:   "//mb:ignore det-time progress line is wall-clock by design",
			ok:     true,
			rules:  []string{"det-time"},
			reason: "progress line is wall-clock by design",
		},
		{
			name:   "multiple rules",
			text:   "//mb:ignore det-time,det-rand demo harness only",
			ok:     true,
			rules:  []string{"det-time", "det-rand"},
			reason: "demo harness only",
		},
		{
			name:   "block comment",
			text:   "/*mb:ignore err-cmp comparing to io.EOF from a Read loop*/",
			ok:     true,
			rules:  []string{"err-cmp"},
			reason: "comparing to io.EOF from a Read loop",
		},
		{
			name:   "tabs between fields",
			text:   "//mb:ignore\terr-wrap\tmessage is for humans only",
			ok:     true,
			rules:  []string{"err-wrap"},
			reason: "message is for humans only",
		},
		{name: "ordinary comment", text: "// mb:ignore is documented in the README", ok: false},
		{name: "spaced marker is not a directive", text: "// mb:ignore det-time x", ok: false},
		{name: "different verb", text: "//mb:hotpath reason", ok: false, unknown: "hotpath"},
		{name: "retired hotpath verb is unknown", text: "//mb:hotpath", ok: false, unknown: "hotpath"},
		{name: "retired coldpath verb is unknown", text: "//mb:coldpath once per batch", ok: false, unknown: "coldpath"},
		{name: "verb prefix of longer word", text: "//mb:ignored det-time x", ok: false, unknown: "ignored"},
		{name: "no rule no reason", text: "//mb:ignore", ok: true, wantErr: "needs a rule ID"},
		{name: "rule without reason", text: "//mb:ignore det-time", ok: true, wantErr: "missing a reason"},
		{name: "empty rule in list", text: "//mb:ignore det-time,, double comma", ok: true, wantErr: "empty rule"},
		{name: "leading comma", text: "//mb:ignore ,det-time x", ok: true, wantErr: "empty rule"},
		{name: "invalid character", text: "//mb:ignore Det-Time uppercase", ok: true, wantErr: "invalid character"},
		{name: "whitespace only body", text: "//mb:ignore   \t ", ok: true, wantErr: "needs a rule ID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, ok, err := ParseIgnoreDirective(tc.text)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if verb, _ := unknownVerb(tc.text); verb != tc.unknown {
				t.Fatalf("unknown verb = %q, want %q", verb, tc.unknown)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok {
				return
			}
			if len(d.Rules) != len(tc.rules) {
				t.Fatalf("rules = %v, want %v", d.Rules, tc.rules)
			}
			for i := range d.Rules {
				if d.Rules[i] != tc.rules[i] {
					t.Fatalf("rules = %v, want %v", d.Rules, tc.rules)
				}
			}
			if d.Reason != tc.reason {
				t.Fatalf("reason = %q, want %q", d.Reason, tc.reason)
			}
		})
	}
}

func TestIgnoreDirectiveRoundTrip(t *testing.T) {
	d := IgnoreDirective{Rules: []string{"det-time", "err-wrap"}, Reason: "round trip"}
	d2, ok, err := ParseIgnoreDirective(d.String())
	if !ok || err != nil {
		t.Fatalf("ParseIgnoreDirective(%q) = ok=%v err=%v", d.String(), ok, err)
	}
	if d2.String() != d.String() {
		t.Fatalf("round trip: %q != %q", d2.String(), d.String())
	}
}

func TestIgnoreDirectiveMatches(t *testing.T) {
	d := IgnoreDirective{Rules: []string{"det-time", "det-rand"}, Reason: "r"}
	if !d.Matches("det-rand") || d.Matches("det-maprange") {
		t.Fatalf("Matches misbehaves: %+v", d)
	}
}

func TestKnownRule(t *testing.T) {
	for _, r := range Rules {
		if !KnownRule(r.ID) {
			t.Errorf("catalog rule %s not known", r.ID)
		}
	}
	if KnownRule("no-such-rule") {
		t.Error("KnownRule accepts an unknown ID")
	}
}
