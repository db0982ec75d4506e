package lint

import (
	"go/ast"
	"go/types"
)

// stickysink enforces the buffered-pipeline failure contract from the
// trace layer: a type that wraps a sink behind a sticky error field must
// check that error before invoking the sink — once a sink has failed it is
// never called again; later batches are dropped and counted.  A sink field
// is a trace.Sink/TxSink/PerfSink or a batch callback func([]E) error, the
// shape trace.Buffer holds.  The check is structural: in every method of
// such a type, a call through the sink field (recv.sink.Flush(...) or
// recv.sink(...)) must be preceded by an if-condition reading the error
// field.
type stickysink struct {
	nopFinish
}

func init() {
	registerPass("stickysink", func() Pass { return &stickysink{} })
}

func (*stickysink) Name() string { return "stickysink" }
func (*stickysink) Doc() string {
	return "sink-wrapping types with a sticky error never invoke the sink without checking the error first"
}

// stickyType describes one sink-wrapping struct.
type stickyType struct {
	sinkFields map[string]bool
	errFields  map[string]bool
}

func (s *stickysink) Check(p *Package, r *Reporter) {
	ifaces := sinkInterfaces(p)
	wrapped := map[string]stickyType{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			w := stickyType{sinkFields: map[string]bool{}, errFields: map[string]bool{}}
			for _, field := range st.Fields.List {
				t := p.Info.TypeOf(field.Type)
				if t == nil {
					continue
				}
				for _, name := range field.Names {
					switch {
					case isSinkType(t, ifaces):
						w.sinkFields[name.Name] = true
					case isErrorType(t):
						w.errFields[name.Name] = true
					}
				}
			}
			if len(w.sinkFields) > 0 && len(w.errFields) > 0 {
				wrapped[ts.Name.Name] = w
			}
			return true
		})
	}
	if len(wrapped) == 0 {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			tname := recvTypeName(fd.Recv.List[0].Type)
			w, ok := wrapped[tname]
			if !ok || len(fd.Recv.List[0].Names) == 0 {
				continue
			}
			recv := fd.Recv.List[0].Names[0].Name
			s.checkMethod(p, r, tname, fd, recv, w)
		}
	}
}

// checkMethod walks one method body in source order: an if-condition
// reading recv.<errField> arms the guard; a call through recv.<sinkField>
// before that is a contract violation.
func (s *stickysink) checkMethod(p *Package, r *Reporter, tname string, fd *ast.FuncDecl, recv string, w stickyType) {
	guarded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IfStmt:
			if mentionsField(e.Cond, recv, w.errFields) {
				guarded = true
			}
		case *ast.CallExpr:
			if field := sinkCall(e.Fun, recv, w.sinkFields); field != "" && !guarded {
				r.Report(e.Pos(), "stickysink",
					"%s.%s invokes sink field %q without first checking the sticky error (a failed sink must never be called again)",
					tname, fd.Name.Name, field)
			}
		}
		return true
	})
}

// sinkCall returns the sink field a call's function expression invokes —
// recv.<field>.Method for an interface sink, recv.<field> for a batch
// callback — or "" when it invokes none.
func sinkCall(fun ast.Expr, recv string, fields map[string]bool) string {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		sel = inner
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || id.Name != recv || !fields[sel.Sel.Name] {
		return ""
	}
	return sel.Sel.Name
}

// mentionsField reports whether expr reads recv.<field> for any field in
// the set.
func mentionsField(expr ast.Expr, recv string, fields map[string]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !fields[sel.Sel.Name] {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv {
			found = true
		}
		return !found
	})
	return found
}

// sinkInterfaces resolves the trace package's sink interfaces in the
// package's own type universe (the defining package or an import of it).
func sinkInterfaces(p *Package) []types.Type {
	tracePkg := importedPkg(p, "internal/trace")
	if tracePkg == nil {
		return nil
	}
	var out []types.Type
	for _, name := range []string{"Sink", "TxSink", "PerfSink"} {
		if obj, ok := tracePkg.Scope().Lookup(name).(*types.TypeName); ok {
			out = append(out, obj.Type())
		}
	}
	return out
}

// isSinkType reports whether t is (or aliases) one of the sink interface
// types, or is a batch callback: a non-variadic func taking one slice and
// returning only an error.
func isSinkType(t types.Type, ifaces []types.Type) bool {
	for _, iface := range ifaces {
		if types.Identical(t, iface) {
			return true
		}
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Variadic() || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	_, slice := sig.Params().At(0).Type().Underlying().(*types.Slice)
	return slice && isErrorType(sig.Results().At(0).Type())
}
