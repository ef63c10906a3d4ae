package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// IgnoreDirective is one parsed //mb:ignore comment. A directive names
// the rule (or comma-separated rules) it suppresses and must carry a
// non-empty reason; suppression without a recorded justification is
// exactly the kind of silent exception the suite exists to prevent.
type IgnoreDirective struct {
	Rules  []string
	Reason string
}

// String renders the directive back in canonical comment form.
func (d IgnoreDirective) String() string {
	return "//mb:ignore " + strings.Join(d.Rules, ",") + " " + d.Reason
}

// Matches reports whether the directive suppresses the given rule ID.
func (d IgnoreDirective) Matches(rule string) bool {
	for _, r := range d.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// ParseIgnoreDirective parses one comment's text. The expected form is
//
//	//mb:ignore RULE[,RULE...] reason text
//
// Return values: ok is false when the comment is not an mb:ignore
// directive at all (ordinary comments pass through silently); err is
// non-nil when it is one but malformed — no rules, an empty rule in the
// list, a rule with characters outside [a-z0-9-], or a missing reason.
func ParseIgnoreDirective(text string) (IgnoreDirective, bool, error) {
	body, isDirective := cutDirective(text, "mb:ignore")
	if !isDirective {
		return IgnoreDirective{}, false, nil
	}
	body = strings.TrimSpace(body)
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return IgnoreDirective{}, true, fmt.Errorf("mb:ignore needs a rule ID and a reason")
	}
	rules := strings.Split(fields[0], ",")
	for _, r := range rules {
		if r == "" {
			return IgnoreDirective{}, true, fmt.Errorf("mb:ignore has an empty rule in %q", fields[0])
		}
		for _, c := range r {
			if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
				return IgnoreDirective{}, true, fmt.Errorf("mb:ignore rule %q has invalid character %q", r, c)
			}
		}
	}
	reason := strings.TrimSpace(strings.TrimPrefix(body, fields[0]))
	if reason == "" {
		return IgnoreDirective{}, true, fmt.Errorf("mb:ignore %s is missing a reason", fields[0])
	}
	return IgnoreDirective{Rules: rules, Reason: reason}, true, nil
}

// cutDirective strips a leading // or /* comment marker and reports
// whether the remainder begins with the given directive verb. Directives
// must be machine-style comments: no space between // and mb: (the same
// convention as //go:build).
func cutDirective(text, verb string) (string, bool) {
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	}
	rest, ok := strings.CutPrefix(text, verb)
	if !ok {
		return "", false
	}
	// The verb must end at a word boundary: "mb:ignored" is not a
	// directive, "mb:ignore x" and bare "mb:ignore" are.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return rest, true
}

// DirectiveAnalyzer reports malformed //mb: directives: mb:ignore
// comments that fail to parse or name unknown rules, and any other
// //mb:<verb> comment. Broken suppressions must be loud — a typo in an
// ignore comment silently un-suppresses nothing and suppresses nothing.
var DirectiveAnalyzer = &Analyzer{
	Name: "directive",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					p.checkDirectiveComment(c)
				}
			}
		}
	},
}

// checkDirectiveComment validates one comment against the directive
// grammar.
func (p *Pass) checkDirectiveComment(c *ast.Comment) {
	if d, ok, err := ParseIgnoreDirective(c.Text); ok {
		if err != nil {
			p.Reportf(c.Pos(), "mb-directive", "write //mb:ignore RULE reason", "%v", err)
			return
		}
		for _, r := range d.Rules {
			if !KnownRule(r) {
				p.Reportf(c.Pos(), "mb-directive", "pick a rule ID from mbvet -rules", "mb:ignore names unknown rule %q", r)
			}
		}
		return
	}
	// Any other machine-style //mb:<verb> comment is a typo or a retired
	// verb: it parses as no known directive and silently does nothing.
	if verb, ok := unknownVerb(c.Text); ok {
		p.Reportf(c.Pos(), "mb-directive", "mb:ignore is the only directive",
			"unknown directive //mb:%s", verb)
	}
}

// unknownVerb extracts the verb of a machine-style //mb:<verb> comment
// that matches no known directive, returning ok=false for ordinary
// comments.
func unknownVerb(text string) (string, bool) {
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	}
	rest, ok := strings.CutPrefix(text, "mb:")
	if !ok {
		return "", false
	}
	verb := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		verb = rest[:i]
	}
	if verb == "" {
		return "", false
	}
	if verb == "ignore" {
		return "", false
	}
	return verb, true
}

// ignoreKey addresses one source line's //mb:ignore directives.
type ignoreKey struct {
	file string
	line int
}

// applyIgnores drops the pass's findings suppressed by a well-formed
// //mb:ignore directive naming their rule on the same line or the line
// immediately above. mb-directive findings are never suppressible.
func applyIgnores(p *Pass) []Finding {
	ignores := map[ignoreKey][]IgnoreDirective{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok, err := ParseIgnoreDirective(c.Text)
				if !ok || err != nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := ignoreKey{pos.Filename, pos.Line}
				ignores[k] = append(ignores[k], d)
			}
		}
	}
	var out []Finding
	for _, fd := range p.findings {
		if fd.Rule != "mb-directive" && (suppressed(ignores[ignoreKey{fd.File, fd.Line}], fd.Rule) ||
			suppressed(ignores[ignoreKey{fd.File, fd.Line - 1}], fd.Rule)) {
			continue
		}
		out = append(out, fd)
	}
	return out
}

func suppressed(ds []IgnoreDirective, rule string) bool {
	for _, d := range ds {
		if d.Matches(rule) {
			return true
		}
	}
	return false
}
