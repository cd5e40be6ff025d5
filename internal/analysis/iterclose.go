package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// IterClose enforces the connector streaming contract: a RowIterator
// obtained from an opening call must be Closed on every path out of the
// function that opened it. The check reuses the lock-region shape from
// lockregion.go — an open starts a "live" region; `defer it.Close()`
// (directly or inside a deferred closure) satisfies it outright; a plain
// `it.Close()` in a terminating nested branch punches a hole covering the
// branch remainder; a same-level Close ends the region. A return inside a
// live region, or falling off the end of the function with the region
// still open, is the leak.
//
// Ownership transfers are exempt: returning the iterator, passing it as a
// call argument, storing it in a struct/map/slice/channel, or aliasing it
// hands the Close obligation to the recipient. The error-guard idiom
// `it, err := open(); if err != nil { return err }` is exempt on the guard
// path because the iterator is nil there.
var IterClose = &Analyzer{
	Name: "iterclose",
	Doc:  "iterators obtained from opening calls must be closed on every path",
	Run:  runIterClose,
}

func runIterClose(p *Pass) error {
	if len(p.Config.Iterators) == 0 {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			scanIterBody(p, fn.Body)
			// Function literals are independent units: an iterator a closure
			// opens must be closed by the closure (or escape from it).
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					scanIterBody(p, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// iterRegion is one live interval of an opened iterator variable.
type iterRegion struct {
	obj       types.Object // the iterator variable
	errObj    types.Object // error assigned alongside it, if any
	name      string
	start     token.Pos
	end       token.Pos // close position, or body end while live
	holes     []posRange
	depth     int
	closed    bool // a straight-line Close ended the region
	satisfied bool // deferred Close or ownership escape
}

func (r *iterRegion) holed(pos token.Pos) bool {
	for _, h := range r.holes {
		if h.contains(pos) {
			return true
		}
	}
	return false
}

type iterScanner struct {
	p       *Pass
	regions []*iterRegion
	open    map[types.Object]*iterRegion
	returns []token.Pos
	bodyEnd token.Pos
}

// scanIterBody checks one function (or function-literal) body. Nested
// literals are not descended into here — runIterClose scans each as its
// own unit, so a return inside a closure never counts against the outer
// function's regions.
func scanIterBody(p *Pass, body *ast.BlockStmt) {
	sc := &iterScanner{p: p, open: map[types.Object]*iterRegion{}, bodyEnd: body.End()}
	sc.scanList(body.List, 0)
	for _, r := range sc.regions {
		if r.satisfied {
			continue
		}
		leaked := token.NoPos
		for _, ret := range sc.returns {
			if ret <= r.start || ret >= r.end || r.holed(ret) {
				continue
			}
			leaked = ret
			break
		}
		if leaked.IsValid() {
			sc.p.Reportf(r.start, "iterator %s is not closed on the path returning at line %d: defer %s.Close() after the open, or close it before every return",
				r.name, sc.p.Fset.Position(leaked).Line, r.name)
			continue
		}
		if !r.closed && !stmtListTerminates(body.List) {
			sc.p.Reportf(r.start, "iterator %s is not closed before the function falls off the end: defer %s.Close() after the open", r.name, r.name)
		}
	}
}

func (sc *iterScanner) scanList(list []ast.Stmt, depth int) {
	for i, st := range list {
		sc.scanStmt(st, list[i+1:], depth)
	}
}

func (sc *iterScanner) scanStmt(st ast.Stmt, rest []ast.Stmt, depth int) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if obj, ok := sc.closeReceiver(call); ok {
				sc.handleClose(obj, call, rest, depth)
				return
			}
		}
		sc.findEscapes(s)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if obj, ok := sc.closeReceiver(call); ok {
					// `_ = it.Close()` / `err = it.Close()`
					sc.handleClose(obj, call, rest, depth)
					return
				}
			}
		}
		sc.findEscapes(s)
		sc.handleOpen(s, depth)
	case *ast.DeferStmt:
		sc.handleDefer(s)
	case *ast.GoStmt:
		sc.findEscapes(s)
	case *ast.ReturnStmt:
		sc.findEscapes(s)
		sc.returns = append(sc.returns, s.Pos())
	case *ast.SendStmt, *ast.DeclStmt, *ast.IncDecStmt:
		sc.findEscapes(s)
	case *ast.IfStmt:
		if s.Init != nil {
			// `if err := it.Close(); err != nil` — the init runs
			// unconditionally at the statement's own level.
			sc.scanStmt(s.Init, rest, depth)
		}
		sc.maybeGuardHole(s)
		sc.scanList(s.Body.List, depth+1)
		if s.Else != nil {
			sc.scanStmt(s.Else, nil, depth)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.scanStmt(s.Init, nil, depth)
		}
		sc.scanList(s.Body.List, depth+1)
	case *ast.RangeStmt:
		sc.scanList(s.Body.List, depth+1)
	case *ast.SwitchStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				sc.scanList(clause.Body, depth+1)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				sc.scanList(clause.Body, depth+1)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				sc.scanList(clause.Body, depth+1)
			}
		}
	case *ast.BlockStmt:
		sc.scanList(s.List, depth+1)
	case *ast.LabeledStmt:
		sc.scanStmt(s.Stmt, rest, depth)
	}
}

// handleOpen registers regions for iterator-typed results of a call
// assignment. A result assigned to the blank identifier can never be
// closed and is reported outright; a result assigned into a field or
// element is an ownership store and tracked by whoever owns the field.
func (sc *iterScanner) handleOpen(s *ast.AssignStmt, depth int) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	t := sc.p.TypeOf(call)
	if t == nil {
		return
	}
	var results []types.Type
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			results = append(results, tup.At(i).Type())
		}
	} else {
		results = []types.Type{t}
	}
	if len(s.Lhs) != len(results) {
		return
	}
	var errObj types.Object
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if types.Identical(results[i], types.Universe.Lookup("error").Type()) {
			errObj = sc.p.ObjectOf(id)
		}
	}
	for i, lhs := range s.Lhs {
		if !sc.isIterType(results[i]) {
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue // stored straight into a field/element: ownership transferred
		}
		if id.Name == "_" {
			sc.p.Reportf(s.Pos(), "iterator result of %s is discarded without Close", exprPath(call.Fun))
			continue
		}
		obj := sc.p.ObjectOf(id)
		if obj == nil {
			continue
		}
		r := &iterRegion{
			obj:    obj,
			errObj: errObj,
			name:   id.Name,
			start:  s.End(),
			end:    sc.bodyEnd,
			depth:  depth,
		}
		sc.regions = append(sc.regions, r)
		sc.open[obj] = r
	}
}

func (sc *iterScanner) handleClose(obj types.Object, call *ast.CallExpr, rest []ast.Stmt, depth int) {
	r := sc.open[obj]
	if r.depth < depth && terminates(rest) {
		// Close in an early-exit branch: that path is covered; the region
		// stays live past the branch.
		r.holes = append(r.holes, posRange{start: call.End(), end: rest[len(rest)-1].End()})
		return
	}
	r.closed = true
	r.end = call.Pos()
	delete(sc.open, obj)
}

func (sc *iterScanner) handleDefer(s *ast.DeferStmt) {
	if obj, ok := sc.closeReceiver(s.Call); ok {
		sc.open[obj].satisfied = true
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		sc.litCloses(lit)
	}
	for _, a := range s.Call.Args {
		sc.escapeIfIter(a)
	}
}

// maybeGuardHole exempts the error-guard idiom: a terminating branch whose
// condition mentions the error (or the iterator itself, for nil checks)
// assigned at the open — the iterator is nil on that path.
func (sc *iterScanner) maybeGuardHole(s *ast.IfStmt) {
	if !terminates(s.Body.List) {
		return
	}
	for _, r := range sc.open {
		if r.satisfied || s.Body.Pos() <= r.start {
			continue
		}
		if sc.condMentions(s.Cond, r.errObj) || sc.condMentions(s.Cond, r.obj) {
			r.holes = append(r.holes, posRange{start: s.Body.Pos(), end: s.Body.End()})
		}
	}
}

func (sc *iterScanner) condMentions(cond ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && sc.p.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// findEscapes marks regions whose iterator flows out of the function's
// hands inside the statement: as a call argument, a return value, an
// assignment or composite-literal element, or a channel send. A closure
// that closes the iterator also satisfies the region (deferred-cleanup
// helpers, goroutine consumers).
func (sc *iterScanner) findEscapes(n ast.Node) {
	ast.Inspect(n, func(nn ast.Node) bool {
		switch e := nn.(type) {
		case *ast.FuncLit:
			sc.litCloses(e)
		case *ast.CallExpr:
			for _, a := range e.Args {
				sc.escapeIfIter(a)
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				sc.escapeIfIter(r)
			}
		case *ast.AssignStmt:
			for _, r := range e.Rhs {
				if _, isCall := r.(*ast.CallExpr); !isCall {
					sc.escapeIfIter(r)
				}
			}
		case *ast.ValueSpec:
			for _, v := range e.Values {
				sc.escapeIfIter(v)
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					sc.escapeIfIter(kv.Value)
				} else {
					sc.escapeIfIter(el)
				}
			}
		case *ast.SendStmt:
			sc.escapeIfIter(e.Value)
		}
		return true
	})
}

func (sc *iterScanner) escapeIfIter(e ast.Expr) {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	obj := sc.p.ObjectOf(id)
	if obj == nil {
		return
	}
	if r, ok := sc.open[obj]; ok {
		r.satisfied = true
	}
}

// litCloses satisfies any open region the literal's body closes.
func (sc *iterScanner) litCloses(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, ok := sc.closeReceiver(call); ok {
				sc.open[obj].satisfied = true
			}
		}
		return true
	})
}

// closeReceiver matches `x.Close()` where x is a currently-open iterator.
func (sc *iterScanner) closeReceiver(call *ast.CallExpr) (types.Object, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := sc.p.ObjectOf(id)
	if obj == nil {
		return nil, false
	}
	if _, open := sc.open[obj]; !open {
		return nil, false
	}
	return obj, true
}

func (sc *iterScanner) isIterType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	for _, s := range sc.p.Config.Iterators {
		if named.Obj().Name() == s.Name && pkgPathOf(named) == s.Pkg {
			return true
		}
	}
	return false
}

// stmtListTerminates reports whether control definitely leaves the function
// through the list's last statement (so "falls off the end" is impossible).
func stmtListTerminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return s.Else != nil && stmtListTerminates(s.Body.List) && stmtTerminates(s.Else)
	case *ast.BlockStmt:
		return stmtListTerminates(s.List)
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}
