// Package storeio is the command-line glue for the persistent result
// store: a shared flag block (-store, -store-dir, -store-clear,
// -store-max-bytes) and construction of the store those flags imply.
// The CLIs (membottle, mbtables) register the same block so the flags
// mean the same thing everywhere.
package storeio

import (
	"flag"
	"fmt"

	"membottle/internal/obs"
	"membottle/internal/store"
)

// Flags holds the result-store command-line options.
type Flags struct {
	Store    bool
	Dir      string
	Clear    bool
	MaxBytes int64
}

// Register installs the shared store flag block on fs (use
// flag.CommandLine for the process-wide set) and returns the bound Flags.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Store, "store", false, "persist and reuse results across invocations via the on-disk result store")
	fs.StringVar(&f.Dir, "store-dir", "", "result-store directory (default: the user cache directory)")
	fs.BoolVar(&f.Clear, "store-clear", false, "clear the result store before running (implies -store)")
	fs.Int64Var(&f.MaxBytes, "store-max-bytes", 0, "result-store size cap in bytes; stalest entries are evicted (0 = default, negative = unlimited)")
	return f
}

// Enabled reports whether the flags ask for a store.
func (f *Flags) Enabled() bool { return f.Store || f.Clear }

// Build opens the store the flags imply (nil when none was requested),
// wiring its metrics and trace events into o (which may be nil), and
// clears it first when -store-clear was given.
func (f *Flags) Build(o *obs.Obs) (*store.Store, error) {
	if !f.Enabled() {
		return nil, nil
	}
	dir := f.Dir
	if dir == "" {
		var err error
		dir, err = store.DefaultDir()
		if err != nil {
			return nil, err
		}
	}
	s, err := store.Open(dir, store.Options{MaxBytes: f.MaxBytes, Obs: o})
	if err != nil {
		return nil, err
	}
	if f.Clear {
		if err := s.Clear(); err != nil {
			return nil, fmt.Errorf("store-clear: %w", err)
		}
	}
	return s, nil
}
