// Command mbvet is the project's static-analysis driver: it parses and
// type-checks the requested packages with the standard library's
// go/parser and go/types (no x/tools, no build cache) and runs the
// internal/analysis rule suite over them — determinism rules and error
// conventions, the rules with a record of catching real bugs here.
//
// Usage:
//
//	mbvet [-json] [packages...]
//	mbvet -rules
//	mbvet -version
//
// Package patterns are directories, optionally ending in /... (default
// ./...); /... stops at nested modules, as the go tool's does. Findings
// print one per line as file:line:col: rule: message, deterministically
// sorted by file, line, and column; -json emits a machine-readable
// report instead. Exit status is 0 when the tree is clean, 1 when
// findings were reported, and 2 when a package failed to load or
// type-check. There is no suppression directive; the packages that read
// the wall clock by design are exempt from the determinism rules by path
// (analysis.IsSimPackage).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"membottle/internal/analysis"
)

// version identifies the analyzer build in CI logs. Bump when rules are
// added or their semantics change, so a new failure in CI can be read
// next to the analyzer change that caused it.
const version = "mbvet 3.0.0 (5 rules)"

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	showVersion := flag.Bool("version", false, "print the analyzer version and exit")
	showRules := flag.Bool("rules", false, "list all rule IDs with one-line descriptions and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version)
		return
	}
	if *showRules {
		for _, r := range analysis.Rules {
			fmt.Printf("%-15s %s\n", r.ID, r.Summary)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	findings := analysis.AnalyzeAll(pkgs)
	for i := range findings {
		findings[i].File = relPath(findings[i].File)
	}

	if *jsonOut {
		report := struct {
			Version  string             `json:"version"`
			Findings []analysis.Finding `json:"findings"`
		}{Version: version, Findings: findings}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mbvet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// relPath shortens an absolute path to be cwd-relative when possible,
// matching the go tool's diagnostic style.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || len(rel) >= len(path) {
		return path
	}
	return rel
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbvet:", err)
	os.Exit(2)
}
