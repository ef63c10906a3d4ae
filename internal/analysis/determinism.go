package analysis

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer enforces the simulator's reproducibility contract
// in every package outside the wall-clock list (IsSimPackage): identical
// inputs must produce byte-identical checkpoints, shard merges, and
// report tables.
//
//   - det-time: time.Now / time.Since / time.Until read the wall clock,
//     which differs run to run. Simulation code must consume virtual
//     cycles or accept explicit timestamps.
//   - det-rand: package-level math/rand functions draw from the global,
//     implicitly seeded source. Randomized behaviour must come from a
//     rand.New(rand.NewSource(seed)) generator owned by the caller so a
//     run can be replayed (and its RNG state checkpointed).
//   - det-maprange: iterating a map while appending to a slice, writing
//     a builder/writer, or sending on a channel publishes map order,
//     which Go randomizes per run — exactly how shard merges and report
//     tables go nondeterministic. Sorting the written slice afterwards
//     (or iterating sorted keys) makes the loop safe.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Run: func(p *Pass) {
		if !IsSimPackage(p.Module, p.ImportPath) {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					p.checkWallClock(n)
					p.checkGlobalRand(n)
				case *ast.FuncDecl:
					if n.Body != nil {
						p.checkMapRanges(n)
					}
				}
				return true
			})
		}
	},
}

// wallClockFuncs are the time package functions that read the host
// clock. Constructors like time.Duration arithmetic are fine.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func (p *Pass) checkWallClock(sel *ast.SelectorExpr) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
		return
	}
	p.Reportf(sel.Pos(), "det-time",
		"thread virtual cycles or an explicit timestamp through the caller",
		"time.%s reads the wall clock in simulation package %s", fn.Name(), p.ImportPath)
}

// globalRandExempt lists math/rand package functions that do not touch
// the global source: they build explicitly seeded generators.
var globalRandExempt = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func (p *Pass) checkGlobalRand(sel *ast.SelectorExpr) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods on *rand.Rand use an explicit source
	}
	if globalRandExempt[fn.Name()] {
		return
	}
	p.Reportf(sel.Pos(), "det-rand",
		"draw from a rand.New(rand.NewSource(seed)) generator owned by the run",
		"rand.%s uses the global math/rand source in simulation package %s", fn.Name(), p.ImportPath)
}

// checkMapRanges flags order-sensitive writes inside range-over-map
// loops in one function.
func (p *Pass) checkMapRanges(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		p.checkMapRangeBody(fn, rng)
		return true
	})
}

func (p *Pass) checkMapRangeBody(fn *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "det-maprange",
				"iterate sorted keys instead",
				"channel send inside map iteration publishes random map order")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !p.isBuiltin(call, "append") || i >= len(n.Lhs) {
					continue
				}
				target := rootIdent(n.Lhs[i])
				if target == nil {
					continue
				}
				// Appending to a loop-local slice is invisible outside
				// one iteration; only accumulation across iterations
				// publishes map order.
				if obj := p.Info.ObjectOf(target); obj == nil ||
					(rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End()) {
					continue
				}
				if p.sortedAfter(fn, rng, n.Lhs[i]) {
					continue
				}
				p.Reportf(n.Pos(), "det-maprange",
					"sort the slice after the loop, or iterate sorted keys",
					"append to %s inside map iteration publishes random map order", types.ExprString(n.Lhs[i]))
			}
		case *ast.CallExpr:
			if p.isOrderedSink(n) {
				p.Reportf(n.Pos(), "det-maprange",
					"iterate sorted keys instead",
					"%s inside map iteration publishes random map order", callName(n))
			}
		}
		return true
	})
}

// isOrderedSink reports whether the call appends to an order-sensitive
// sink: an io.Writer / strings.Builder / bytes.Buffer style Write*
// method, or a fmt print function.
func (p *Pass) isOrderedSink(call *ast.CallExpr) bool {
	fn := p.calleeFunc(call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && fn.Name() != "Sprintf" && fn.Name() != "Errorf" && fn.Name() != "Sprint" && fn.Name() != "Sprintln" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

func callName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// sortedAfter reports whether, later in the same function, the written
// slice is passed to a sort call (sort.* or slices.Sort*), which
// restores a deterministic order no matter what the map iteration did.
func (p *Pass) sortedAfter(fn *ast.FuncDecl, rng *ast.RangeStmt, target ast.Expr) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		callee := p.calleeFunc(call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if path := callee.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == want {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
