package lint

import (
	"go/ast"
	"go/token"
)

// This file is the flow-sensitive tier of the analyzer framework: an
// intra-procedural control-flow graph over go/ast function bodies, a
// forward dataflow solver in the reaching-definitions style (per-fact
// may-bits joined by union over a worklist), and the path query the
// "X on every path to return" checks share.  The lockorder and ctxflow
// passes are built on it; the syntactic passes
// (determinism, metricname, errcontract, stickysink) do not need it.
//
// The graph is deliberately modest — no SSA, no interprocedural
// summaries — because every invariant the passes prove is local to one
// function body plus the package's declarations: a mutex locked here must
// be unlocked here.

// Block is one basic block: a maximal straight-line node sequence.
// Nodes are statements, plus the condition expressions of the branch
// constructs (so facts established inside an if-condition are seen).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body.  Entry leads to
// the first block; every return, terminal panic and fall-off-the-end
// path leads to Exit.  Defers collects the function's defer statements
// in source order — deferred calls run on every exit path, panicking
// ones included, which is exactly the property the all-paths checks
// credit them for.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Defers []*ast.DeferStmt
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g, gotoTargets: map[string]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = b.newBlock()
	b.link(g.Entry, b.cur)
	b.stmtList(body.List)
	b.link(b.cur, g.Exit)
	b.resolveGotos()
	return g
}

// breakTarget pairs a label ("" for the innermost construct) with the
// block control transfers to.
type breakTarget struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	g   *CFG
	cur *Block

	breaks    []breakTarget
	continues []breakTarget

	gotoTargets map[string]*Block
	gotos       []pendingGoto

	// label is the pending label of a LabeledStmt, consumed by the next
	// breakable/continuable construct it wraps.
	label string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock switches emission to blk, linking the current block into it
// when the current block can fall through.
func (b *cfgBuilder) startBlock(blk *Block) {
	b.link(b.cur, blk)
	b.cur = blk
}

// deadBlock starts a fresh block with no predecessors — the code after
// an unconditional transfer (return, break, goto, panic).
func (b *cfgBuilder) deadBlock() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findBreak resolves the target of a break/continue with optional label.
func findTarget(stack []breakTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is both a goto target and the name break/continue
		// statements may use for the wrapped construct.
		target := b.newBlock()
		b.startBlock(target)
		b.gotoTargets[s.Label.Name] = target
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		thenB := b.newBlock()
		after := b.newBlock()
		elseB := after
		if s.Else != nil {
			elseB = b.newBlock()
		}
		b.link(b.cur, thenB)
		b.link(b.cur, elseB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.link(b.cur, after)
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.link(b.cur, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.label
		b.label = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.link(head, after)
		}
		b.link(head, body)
		b.breaks = append(b.breaks, breakTarget{label, after})
		b.continues = append(b.continues, breakTarget{label, post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.link(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.link(b.cur, head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.label
		b.label = ""
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.startBlock(head)
		b.add(s.X)
		b.link(head, body)
		b.link(head, after) // empty collection
		b.breaks = append(b.breaks, breakTarget{label, after})
		b.continues = append(b.continues, breakTarget{label, head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.link(b.cur, head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.label
		b.label = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Tag)
		b.switchBody(label, s.Body, nil)

	case *ast.TypeSwitchStmt:
		label := b.label
		b.label = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.switchBody(label, s.Body, s.Assign)

	case *ast.SelectStmt:
		label := b.label
		b.label = ""
		head := b.cur
		after := b.newBlock()
		b.breaks = append(b.breaks, breakTarget{label, after})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			blk := b.newBlock()
			b.link(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.link(b.cur, after)
		}
		if len(s.Body.List) == 0 {
			b.link(head, after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.g.Exit)
		b.deadBlock()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			b.link(b.cur, findTarget(b.breaks, label))
			b.deadBlock()
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			b.link(b.cur, findTarget(b.continues, label))
			b.deadBlock()
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{b.cur, s.Label.Name})
			b.deadBlock()
		case token.FALLTHROUGH:
			// Handled by switchBody via clause ordering; nothing to do
			// here (the fallthrough edge is added there).
		}

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.link(b.cur, b.g.Exit)
			b.deadBlock()
		}

	default:
		// Assignments, declarations, sends, inc/dec, go statements,
		// empty statements: straight-line nodes.
		b.add(s)
	}
}

// switchBody lowers the clauses of a switch or type switch.  assign is
// the type switch's assign statement, recorded at the head for
// completeness.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt, assign ast.Stmt) {
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, breakTarget{label, after})
	hasDefault := false
	blocks := make([]*Block, len(body.List))
	for i := range body.List {
		blocks[i] = b.newBlock()
	}
	for i, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.link(head, blocks[i])
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(blocks) {
				b.link(b.cur, blocks[i+1])
				fellThrough = true
				continue
			}
			b.stmt(st)
		}
		if !fellThrough {
			b.link(b.cur, after)
		} else {
			b.deadBlock()
		}
	}
	if !hasDefault {
		b.link(head, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if target, ok := b.gotoTargets[g.label]; ok {
			b.link(g.from, target)
		}
	}
}

// isPanicCall reports whether e is a direct call of the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// --- forward dataflow solver -------------------------------------------

// factBits is a may-set of dataflow facts: each key carries a small
// bitmask, block join is bitwise union per key — the classic reaching-
// definitions shape with the definition payload folded into the bits.
type factBits[K comparable] map[K]uint8

func (f factBits[K]) clone() factBits[K] {
	out := make(factBits[K], len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// merge unions src into f, reporting whether f changed.
func (f factBits[K]) merge(src factBits[K]) bool {
	changed := false
	for k, v := range src {
		if f[k]&v != v {
			f[k] |= v
			changed = true
		}
	}
	return changed
}

// solveForward runs transfer over the graph to fixpoint and returns the
// in-state of every block (Exit included, whose in-state is the join of
// every path's final facts).  transfer must not mutate its input.
func solveForward[K comparable](g *CFG, transfer func(b *Block, in factBits[K]) factBits[K]) map[*Block]factBits[K] {
	in := make(map[*Block]factBits[K], len(g.Blocks))
	for _, blk := range g.Blocks {
		in[blk] = factBits[K]{}
	}
	// Every block is seeded once: propagation alone would never visit a
	// block whose in-state stays empty, and its own transfer effects
	// (acquisitions, hand-offs) must still reach its successors.
	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		out := transfer(blk, in[blk])
		for _, succ := range blk.Succs {
			if in[succ].merge(out) {
				work = append(work, succ)
			}
		}
	}
	return in
}

// --- path queries ------------------------------------------------------

// reachesExitWithout reports whether some path starting at from.Nodes
// [startIdx:] reaches the function exit without first passing a node for
// which stop returns true.  It is the engine behind the all-paths checks:
// "unlock on every path", "release on every path".
func (g *CFG) reachesExitWithout(from *Block, startIdx int, stop func(ast.Node) bool) bool {
	// Walk the tail of the starting block first; a stop node there closes
	// every path through it.
	for _, n := range from.Nodes[startIdx:] {
		if stop(n) {
			return false
		}
	}
	seen := map[*Block]bool{from: true}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, n := range b.Nodes {
			if stop(n) {
				return false
			}
		}
		for _, succ := range b.Succs {
			if walk(succ) {
				return true
			}
		}
		return false
	}
	for _, succ := range from.Succs {
		if walk(succ) {
			return true
		}
	}
	return false
}
