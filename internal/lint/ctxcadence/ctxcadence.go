// Package ctxcadence enforces the matcher's cancellation contract. The
// engine promises that deadlines, Rows.Close and the pipeline's stop flag
// take effect promptly even inside one enormous candidate region, which
// requires two disciplines:
//
//  1. Every enumeration loop in the core matcher — a loop that drives the
//     cursor's search by calling step/resume/descend/emit and friends —
//     must contain a cancellation checkpoint: a ctx.Err() call, a read of
//     the searchState stopped flag, a stop.Load() on the pipeline's
//     abandon flag, or a checkCancel-style helper. (The 2048-step cadence
//     inside the cursor's candidate loops counts: the ctx.Err() call is
//     syntactically inside the loop.) Bounded per-frame loops that only
//     push frames (pushWild/pushExpand) are not enumeration drivers and
//     are exempt by construction — they are excluded from the driver call
//     set.
//
//  2. A function that accepts a context.Context must thread it: calling
//     context.Background() or context.TODO() inside such a function
//     detaches every callee beneath from the caller's cancellation. The
//     one idiomatic exception is the nil-guard rebind
//     `if ctx == nil { ctx = context.Background() }`, recognized as a
//     plain assignment into an existing context variable.
//
//  3. A serving-layer loop that pumps a cursor — any for/range statement
//     whose condition, post statement, or body calls a no-argument Next()
//     method returning bool — must also contain a checkpoint. HTTP
//     handlers sit between a cursor and a client socket; net/http cancels
//     the request context when the client disconnects, but a Write to a
//     dead connection can keep succeeding into kernel buffers for a
//     while, so a row-emission loop that never consults ctx.Err() keeps
//     the matcher burning on a result nobody will read. The bool-result
//     shape excludes container/list-style iterators (whose Next returns
//     the next element, not a bool).
//
// Rule 1 is scoped to the matcher packages via -ctxcadence.pkgs
// (default repro/internal/core); rule 2 applies everywhere; rule 3 is
// scoped to the serving packages via -ctxcadence.httppkgs (default
// repro/internal/server).
package ctxcadence

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxcadence",
	Doc:  "check that core enumeration loops contain a cancellation checkpoint and that ctx-taking functions do not detach callees with context.Background/TODO",
	Run:  run,
}

var pkgs, httppkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", "repro/internal/core",
		"comma-separated packages whose enumeration loops need cancellation checkpoints (suffix match)")
	Analyzer.Flags.StringVar(&httppkgs, "httppkgs", "repro/internal/server",
		"comma-separated serving packages whose cursor-pumping loops need cancellation checkpoints (suffix match)")
}

// driverFuncs are the same-package calls that advance the enumeration:
// a loop containing one can run for an unbounded number of solutions and
// therefore needs a checkpoint. Frame-push helpers (push*) and the
// bounded region exploration (explore) are deliberately absent.
var driverFuncs = map[string]bool{
	"emit":      true,
	"emitMatch": true,
	"step":      true,
	"resume":    true,
	"descend":   true,
	"runBatch":  true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	inScope := lintutil.InScope(pass, pkgs)
	inServe := lintutil.InScope(pass, httppkgs)
	for _, file := range lintutil.NonTestFiles(pass) {
		if inScope {
			checkLoops(pass, file)
		}
		if inServe {
			checkCursorLoops(pass, file)
		}
		checkBackground(pass, file)
	}
	return nil, nil
}

// checkLoops flags enumeration loops without a cancellation checkpoint.
func checkLoops(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var pos token.Pos
		switch n := n.(type) {
		case *ast.ForStmt:
			body, pos = n.Body, n.Pos()
		case *ast.RangeStmt:
			body, pos = n.Body, n.Pos()
		default:
			return true
		}
		if !callsDriver(pass, body) {
			return true
		}
		if !hasCheckpoint(pass, body) {
			pass.Reportf(pos, "enumeration loop drives the search but has no cancellation checkpoint (ctx.Err / stopped flag / stop.Load); Close and deadlines would stall inside it")
		}
		return true
	})
}

// callsDriver reports whether the loop body calls a same-package
// enumeration driver.
func callsDriver(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := lintutil.CalleeName(call)
		if !driverFuncs[name] {
			return true
		}
		// Same-package functions/methods only: a stdlib Stream.resume or
		// similar must not trigger.
		switch fn := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if o := pass.TypesInfo.Uses[fn]; o != nil && o.Pkg() == pass.Pkg {
				found = true
			}
		case *ast.SelectorExpr:
			if o := pass.TypesInfo.Uses[fn.Sel]; o != nil && o.Pkg() == pass.Pkg {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasCheckpoint reports whether the loop body contains a cancellation
// check in one of the recognized forms.
func hasCheckpoint(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			name := lintutil.CalleeName(n)
			switch name {
			case "Err":
				if recv := lintutil.ReceiverExpr(n); recv != nil {
					if t := pass.TypesInfo.TypeOf(recv); t != nil && lintutil.IsContextType(t) {
						found = true
					}
				}
			case "Load":
				if recv := lintutil.ReceiverExpr(n); recv != nil && selectorName(recv) == "stop" {
					found = true
				}
			case "checkCancel", "cancelled", "canceled", "checkCancelled":
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "stopped" {
				found = true
			}
		case *ast.Ident:
			if n.Name == "stopped" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkCursorLoops flags serving-layer loops that pump a cursor (any
// no-arg Next() method returning bool, anywhere in the for statement —
// `for rows.Next()` and `for next := first; next; next = rows.Next()`
// alike) without a cancellation checkpoint in the body.
func checkCursorLoops(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		if !callsCursorNext(pass, n) {
			return true
		}
		if !hasCheckpoint(pass, body) {
			pass.Reportf(n.Pos(), "cursor-pumping loop has no cancellation checkpoint; check ctx.Err() on the emission cadence so a disconnected client aborts the search")
		}
		return true
	})
}

// callsCursorNext reports whether the for/range statement calls a
// cursor-style Next: a no-argument method returning exactly one bool.
func callsCursorNext(pass *analysis.Pass, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 || lintutil.CalleeName(call) != "Next" {
			return true
		}
		if lintutil.ReceiverExpr(call) == nil {
			return true
		}
		if t, ok := pass.TypesInfo.TypeOf(call).(*types.Basic); ok && t.Kind() == types.Bool {
			found = true
		}
		return !found
	})
	return found
}

// selectorName returns the final name of an ident/selector chain
// ("stop" for ps.stop), or "".
func selectorName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// checkBackground flags context.Background()/TODO() inside functions that
// already receive a context, except the nil-guard rebind.
func checkBackground(pass *analysis.Pass, file *ast.File) {
	// ctxFuncs holds every function node that declares a context.Context
	// parameter, with its span.
	type span struct {
		pos, end token.Pos
	}
	var ctxFuncs []span
	ast.Inspect(file, func(n ast.Node) bool {
		params := lintutil.FuncParams(n)
		if params == nil {
			return true
		}
		for _, f := range params.List {
			if t := pass.TypesInfo.TypeOf(f.Type); t != nil && lintutil.IsContextType(t) {
				ctxFuncs = append(ctxFuncs, span{n.Pos(), n.End()})
				break
			}
		}
		return true
	})
	if len(ctxFuncs) == 0 {
		return
	}

	// rebinds collects Background/TODO calls that re-bind an existing
	// context variable (the nil-guard), keyed by call position.
	rebinds := map[token.Pos]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBackgroundCall(pass, call) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if t := pass.TypesInfo.TypeOf(id); t != nil && lintutil.IsContextType(t) {
					rebinds[call.Pos()] = true
				}
			}
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBackgroundCall(pass, call) || rebinds[call.Pos()] {
			return true
		}
		for _, s := range ctxFuncs {
			if s.pos <= call.Pos() && call.Pos() < s.end {
				pass.Reportf(call.Pos(), "context.%s inside a function that receives a ctx; thread the caller's ctx so cancellation reaches this callee", lintutil.CalleeName(call))
				return true
			}
		}
		return true
	})
}

func isBackgroundCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
