package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"membottle/internal/faults"
)

// Every simulation run is single-threaded and deterministic, so the
// experiment harness parallelizes across runs: each application's
// table block or perturbation sweep executes on its own goroutine, and
// results are reassembled in the paper's application order. Parallel and
// serial execution produce byte-identical tables.
//
// Cells are supervised: a panic in one application's run is recovered
// into a CellError instead of killing the whole table, every failed
// cell's error is aggregated with errors.Join (not first-error-wins),
// and a failure attributable to injected faults is retried a bounded
// number of times with a deterministically re-salted fault seed.

// CellError describes the failure of one experiment cell (one
// application within one experiment stage). When the cell panicked
// rather than returned an error, Stack holds the recovered goroutine
// stack.
type CellError struct {
	// App is the application whose cell failed.
	App string
	// Stage names the experiment (e.g. "table1").
	Stage string
	// Attempts is how many times the cell ran (>1 after fault retries).
	Attempts int
	// Err is the underlying failure.
	Err error
	// Stack is the recovered panic stack, nil for ordinary errors.
	Stack []byte
}

func (e *CellError) Error() string {
	kind := ""
	if e.Stack != nil {
		kind = "panicked: "
	}
	attempts := ""
	if e.Attempts > 1 {
		attempts = fmt.Sprintf(" (after %d attempts)", e.Attempts)
	}
	return fmt.Sprintf("experiments: %s/%s %s%v%s", e.Stage, e.App, kind, e.Err, attempts)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// CellErrors extracts every CellError aggregated into err (which is
// normally the errors.Join result of a forEachApp sweep). A nil err
// yields nil.
func CellErrors(err error) []*CellError {
	if err == nil {
		return nil
	}
	var out []*CellError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if joined, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range joined.Unwrap() {
				walk(sub)
			}
			return
		}
		var ce *CellError
		if errors.As(e, &ce) {
			out = append(out, ce)
		}
	}
	walk(err)
	return out
}

// parallelism resolves the worker count from Options.
func (o Options) parallelism() int {
	n := o.Parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// runCell invokes fn once, converting a panic into an error plus the
// recovered stack so one poisoned workload cannot take down the whole
// experiment sweep.
func runCell[T any](fn func(app string, attempt int) (T, error), app string, attempt int) (out T, err error, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			stack = debug.Stack()
		}
	}()
	out, err = fn(app, attempt)
	return out, err, stack
}

// forEachApp runs fn for every app with bounded parallelism, preserving
// order in the results. Failed cells leave a zero value in the result
// slice and contribute a CellError to the returned error, which
// aggregates every failure via errors.Join. A failure attributed to
// injected faults (faults.Retryable) is retried up to Options.Retries
// times; fn receives the attempt number so retries can re-salt the
// fault seed deterministically. Panics are never retried.
func forEachApp[T any](opt Options, stage string, apps []string, fn func(app string, attempt int) (T, error)) ([]T, error) {
	out := make([]T, len(apps))
	errs := make([]error, len(apps))
	sem := make(chan struct{}, opt.parallelism())
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(i int, app string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for attempt := 0; ; attempt++ {
				res, err, stack := runCell(fn, app, attempt)
				if err == nil {
					out[i], errs[i] = res, nil
					return
				}
				errs[i] = &CellError{App: app, Stage: stage, Attempts: attempt + 1, Err: err, Stack: stack}
				if stack != nil || !faults.Retryable(err) || attempt >= opt.Retries {
					return
				}
			}
		}(i, app)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
