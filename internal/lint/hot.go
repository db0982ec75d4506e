package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// hot keeps per-reference code cheap.  A function whose doc comment
// carries the line
//
//	//nvlint:hot
//
// runs once per traced memory reference (the tracer's attribution path,
// the sampling gate, the cache simulator's line lookup), so it may not
// index or assign a map — a hash per reference cost more than half of a
// run's wall time when the segment counters were a map — and may not call
// into fmt.  Closures inside a marked function are checked with it.
type hot struct {
	nopFinish
}

func init() {
	registerPass("hot", func() Pass { return &hot{} })
}

func (*hot) Name() string { return "hot" }
func (*hot) Doc() string {
	return "functions marked //nvlint:hot neither index nor assign a map and call nothing in fmt"
}

const hotDirective = "//nvlint:hot"

func (h *hot) Check(p *Package, r *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && isHot(fd) {
				h.checkFunc(p, r, declName(fd), fd.Body)
			}
		}
	}
}

// isHot reports whether the declaration's doc comment carries the
// //nvlint:hot directive on a line of its own.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotDirective {
			return true
		}
	}
	return false
}

func (h *hot) checkFunc(p *Package, r *Reporter, name string, body *ast.BlockStmt) {
	// Map index expressions that are assignment targets are reported as
	// assignments, once; every other map index is a read.
	assigned := map[*ast.IndexExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if ix := mapIndex(p, lhs); ix != nil {
					assigned[ix] = true
					r.Report(ix.Pos(), "hot", "%s assigns a map on the per-reference path", name)
				}
			}
		case *ast.IncDecStmt:
			if ix := mapIndex(p, e.X); ix != nil {
				assigned[ix] = true
				r.Report(ix.Pos(), "hot", "%s assigns a map on the per-reference path", name)
			}
		case *ast.IndexExpr:
			if mapIndex(p, e) != nil && !assigned[e] {
				r.Report(e.Pos(), "hot", "%s indexes a map on the per-reference path", name)
			}
		case *ast.CallExpr:
			if f := funcObject(p, e.Fun); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				r.Report(e.Pos(), "hot", "%s calls fmt.%s on the per-reference path", name, f.Name())
			}
		}
		return true
	})
}

// mapIndex returns expr as an index expression into a map, or nil.
func mapIndex(p *Package, expr ast.Expr) *ast.IndexExpr {
	ix, ok := ast.Unparen(expr).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	t := p.Info.TypeOf(ix.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	return ix
}
