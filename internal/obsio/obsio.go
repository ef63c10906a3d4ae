// Package obsio is the command-line glue for the observability layer:
// a shared flag block (-metrics, -trace-out, -trace-chrome, -trace-cap,
// -pprof, -progress), construction of the obs bundle those flags imply, and the
// end-of-run export of the metrics summary and trace files. The CLIs
// (membottle, mbtables) register the same block so the flags mean the
// same thing everywhere.
package obsio

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"membottle/internal/obs"
)

// Flags holds the observability command-line options.
type Flags struct {
	Metrics     bool
	TraceOut    string
	TraceChrome string
	TraceCap    int
	Pprof       string
	Progress    time.Duration
}

// Register installs the shared observability flag block on fs (use
// flag.CommandLine for the process-wide set) and returns the bound Flags.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Metrics, "metrics", false, "print a metrics summary block after the run")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the simulation event trace as JSONL to this file")
	fs.StringVar(&f.TraceChrome, "trace-chrome", "", "write the event trace in Chrome trace_event format to this file")
	fs.IntVar(&f.TraceCap, "trace-cap", 0, "event ring-buffer capacity; oldest events are overwritten (0 = default)")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this loopback address (e.g. localhost:6060)")
	fs.DurationVar(&f.Progress, "progress", 0, "print a progress line to stderr at this interval (e.g. 2s); 0 disables")
	return f
}

// Enabled reports whether any flag asks for an obs bundle.
func (f *Flags) Enabled() bool {
	return f.Metrics || f.TraceOut != "" || f.TraceChrome != ""
}

// Build constructs the obs bundle the flags imply (nil when none is
// needed) and starts the pprof server if requested. Tracing is skipped
// when no trace output file was asked for.
func (f *Flags) Build() (*obs.Obs, error) {
	if f.Pprof != "" {
		addr, err := obs.StartPprof(f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
	}
	if !f.Enabled() {
		return nil, nil
	}
	return obs.New(obs.Options{
		TraceCap: f.TraceCap,
		NoTrace:  f.TraceOut == "" && f.TraceChrome == "",
	}), nil
}

// Finish exports everything the flags asked for: trace files first (so a
// summary-rendering failure cannot lose them), then the metrics summary
// to w. Safe to call with a nil bundle.
func (f *Flags) Finish(o *obs.Obs, w io.Writer) error {
	if o == nil {
		return nil
	}
	var events []obs.Event
	if o.Tracer != nil {
		events = o.Tracer.Events()
		if n := o.Tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace: ring full, oldest %d events dropped (raise -trace-cap)\n", n)
		}
	}
	if f.TraceOut != "" {
		if err := writeFile(f.TraceOut, func(fw io.Writer) error {
			return obs.WriteJSONL(fw, events)
		}); err != nil {
			return fmt.Errorf("trace-out %s: %w", f.TraceOut, err)
		}
	}
	if f.TraceChrome != "" {
		if err := writeFile(f.TraceChrome, func(fw io.Writer) error {
			return obs.WriteChromeTrace(fw, events)
		}); err != nil {
			return fmt.Errorf("trace-chrome %s: %w", f.TraceChrome, err)
		}
	}
	if f.Metrics {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := o.Snapshot().WriteSummary(w); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path, streams through fn, and propagates close
// errors — a short write on close must not pass silently.
func writeFile(path string, fn func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}
