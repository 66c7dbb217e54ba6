// Package rowclone enforces the matcher's row ownership contract: a Match
// delivered to a visitor callback is BORROWED — its Vertices/EdgeLabels
// backing arrays belong to the matcher and are reused for the next
// solution as soon as the callback returns. A visitor may read the row,
// or hand it to a callee that finishes with it before returning, but it
// must clone before the row (or any slice inside it) outlives the
// callback: stored to a captured variable, appended to a result slice,
// sent on a channel, or tucked into a struct.
//
// PR 4 shipped exactly this bug: the pipeline's point-shape fast path
// returned N aliased rows, all sharing one backing array, so every row of
// the materialized result held the last solution. This analyzer flags the
// pattern mechanically.
//
// Detection: for every call that passes a function literal (or a
// same-package function) where the callee expects a Visitor — a
// func(Match) bool, by name or by shape — the callback's Match parameter
// and everything aliasing it is tracked as borrowed. Escaping a borrowed
// value is a finding. A call to the matcher's execute whose owned argument
// is the constant true is exempt: it hands its visitor owned rows (the
// sequential branch clones them, and each pipeline worker clones into its
// buffer before the reorder stage), so that consumer may retain them freely.
//
// Cloning launders the taint: mt.Clone(), append([]uint32(nil), s...),
// slices.Clone(s), and copy(dst, s) all produce owned memory. Passing a
// borrowed row as a call argument is not a finding — synchronous callees
// are assumed to finish with the row before returning (the analysis is
// intra-procedural; the callee's own visitor obligations are checked at
// its own callback sites).
package rowclone

import (
	"go/ast"
	"go/constant"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "rowclone",
	Doc:  "check that borrowed matcher rows (core.Match and its slices) are cloned before being retained beyond the visitor callback",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	decls := funcDecls(pass)
	seen := map[ast.Node]bool{}

	for _, file := range lintutil.NonTestFiles(pass) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if ownedRows(pass, call) {
				return true
			}
			sig := calleeSignature(pass, call)
			if sig == nil {
				return true
			}
			for i, arg := range call.Args {
				if i >= sig.Params().Len() && !sig.Variadic() {
					break
				}
				pt := paramType(sig, i)
				if !isVisitorType(pt) {
					continue
				}
				switch fn := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					if !seen[fn] {
						seen[fn] = true
						checkVisitor(pass, fn.Type.Params, fn.Body)
					}
				case *ast.Ident:
					if decl := declFor(pass, decls, fn); decl != nil && !seen[decl] {
						seen[decl] = true
						if !lintutil.IsTestFile(pass, decl.Pos()) {
							checkVisitor(pass, decl.Type.Params, decl.Body)
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// ownedRows reports whether call is execute(visit, true): the matcher entry
// asked for rows its visitor may keep.
func ownedRows(pass *analysis.Pass, call *ast.CallExpr) bool {
	if lintutil.CalleeName(call) != "execute" || len(call.Args) != 2 {
		return false
	}
	v := pass.TypesInfo.Types[call.Args[1]].Value
	return v != nil && v.Kind() == constant.Bool && constant.BoolVal(v)
}

// funcDecls indexes the package's function declarations by object, so a
// named function passed as a visitor can be analyzed at its definition.
func funcDecls(pass *analysis.Pass) map[types.Object]*ast.FuncDecl {
	m := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					m[obj] = fd
				}
			}
		}
	}
	return m
}

func declFor(pass *analysis.Pass, decls map[types.Object]*ast.FuncDecl, id *ast.Ident) *ast.FuncDecl {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	return decls[obj]
}

func calleeSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func paramType(sig *types.Signature, i int) types.Type {
	if sig.Variadic() && i >= sig.Params().Len()-1 {
		last := sig.Params().At(sig.Params().Len() - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return last
	}
	if i < sig.Params().Len() {
		return sig.Params().At(i).Type()
	}
	return nil
}

// isVisitorType reports whether t is the matcher's visitor shape: a named
// type Visitor, or any func(Match) bool.
func isVisitorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if lintutil.TypeName(t) == "Visitor" {
		return true
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	return lintutil.TypeName(sig.Params().At(0).Type()) == "Match"
}

// checkVisitor runs the borrow analysis over one visitor body: params of
// type Match seed the borrowed set, simple aliases join it, and escapes
// are reported.
func checkVisitor(pass *analysis.Pass, params *ast.FieldList, body *ast.BlockStmt) {
	if params == nil || body == nil {
		return
	}
	b := &borrowChecker{pass: pass, body: body, borrowed: map[types.Object]bool{}}
	for _, field := range params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if lintutil.TypeName(t) != "Match" {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				b.borrowed[obj] = true
			}
		}
	}
	if len(b.borrowed) == 0 {
		return
	}
	// Alias propagation to a fixed point: `row := mt` or
	// `v := mt.Vertices` extend the borrowed set, so later escapes of the
	// alias are caught too. The set only grows, so this terminates.
	for {
		before := len(b.borrowed)
		ast.Inspect(body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				b.propagate(as)
			}
			return true
		})
		if len(b.borrowed) == before {
			break
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			b.checkAssign(n)
		case *ast.SendStmt:
			if b.isBorrowed(n.Value) {
				pass.Reportf(n.Value.Pos(), "borrowed matcher row sent on a channel; the backing array is reused after the callback returns — clone it first (Clone / append([]uint32(nil), ...))")
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if b.isBorrowed(arg) {
					pass.Reportf(arg.Pos(), "borrowed matcher row passed to a goroutine; it outlives the callback — clone it first")
				}
			}
		}
		return true
	})
}

type borrowChecker struct {
	pass     *analysis.Pass
	body     *ast.BlockStmt
	borrowed map[types.Object]bool
}

// propagate taints local variables assigned from borrowed values.
func (b *borrowChecker) propagate(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !b.isBorrowed(as.Rhs[i]) {
			continue
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if obj := b.localObj(id); obj != nil {
			b.borrowed[obj] = true
		}
	}
}

// checkAssign reports borrowed values escaping through an assignment: to
// a variable captured from an enclosing scope, to a struct field, or into
// a slice or map element.
func (b *borrowChecker) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !b.isBorrowed(as.Rhs[i]) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if b.localObj(l) == nil {
				b.report(as.Rhs[i], "stored in a variable captured from outside the callback")
			}
		case *ast.SelectorExpr:
			b.report(as.Rhs[i], "stored in a struct field")
		case *ast.IndexExpr:
			b.report(as.Rhs[i], "stored in a slice or map element")
		case *ast.StarExpr:
			b.report(as.Rhs[i], "stored through a pointer")
		}
	}
}

func (b *borrowChecker) report(at ast.Expr, how string) {
	b.pass.Reportf(at.Pos(), "borrowed matcher row %s; the backing array is reused after the callback returns — clone it first (Clone / append([]uint32(nil), ...))", how)
}

// localObj returns id's object when it is declared inside the callback
// body, nil when it is captured from an enclosing scope (or unresolved).
func (b *borrowChecker) localObj(id *ast.Ident) types.Object {
	obj := b.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = b.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return nil
	}
	if obj.Pos() >= b.body.Pos() && obj.Pos() < b.body.End() {
		return obj
	}
	return nil
}

// isBorrowed reports whether e aliases the borrowed row: the parameter
// itself, a tainted local, a field or subslice of a borrowed value, a
// composite literal embedding one, or an append whose operands include
// one. Clone-like calls launder the taint; reads of scalar elements
// (m.Vertices[i]) carry none.
func (b *borrowChecker) isBorrowed(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := b.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = b.pass.TypesInfo.Defs[e]
		}
		return obj != nil && b.borrowed[obj]
	case *ast.SelectorExpr:
		return b.isBorrowed(e.X)
	case *ast.SliceExpr:
		return b.isBorrowed(e.X)
	case *ast.UnaryExpr:
		return b.isBorrowed(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if b.isBorrowed(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// append(x, y, ...) aliases its operands; ellipsis-spreading a
		// []uint32 copies scalar elements and is safe. Every other call
		// (Clone, slices.Clone, constructors) returns owned memory.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if len(e.Args) > 0 && b.isBorrowed(e.Args[0]) {
				return true
			}
			if e.Ellipsis == 0 {
				for _, arg := range e.Args[1:] {
					if b.isBorrowed(arg) {
						return true
					}
				}
			}
		}
		return false
	}
	return false
}
