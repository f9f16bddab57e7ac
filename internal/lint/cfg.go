package lint

// Intraprocedural control-flow layer. The original graphlint analyzers are
// syntactic — they pattern-match the AST of one statement at a time.
// lockdiscipline needs more: "which mutexes are held at this field access"
// on every path that reaches it. This file gives it a small, self-contained
// basic-block CFG per function body, still on nothing but go/ast and
// go/token.
//
// The CFG is deliberately modest: one synthetic entry and exit, blocks
// holding the AST nodes evaluated in order, and edges for if/for/range/
// switch/type-switch/select/labeled-branch control flow. panic(...) and
// calls that never return (os.Exit, log.Fatal*) terminate their block into
// the exit, so must-analyses do not propagate facts across paths that never
// rejoin. goto is supported through lazily created label blocks.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block: the statements and expressions evaluated in
// it, in source order, plus its successor edges.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

func (b *cfgBlock) addSucc(s *cfgBlock) {
	if s == nil {
		return
	}
	for _, old := range b.succs {
		if old == s {
			return
		}
	}
	b.succs = append(b.succs, s)
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock
}

// loopScope tracks the jump targets of one enclosing loop or switch for
// break/continue resolution, with its label ("" when unlabeled).
type loopScope struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select scopes
}

type cfgBuilder struct {
	g      *funcCFG
	cur    *cfgBlock // nil while the walker is in dead code
	scopes []loopScope
	labels map[string]*cfgBlock
}

// buildCFG constructs the CFG of one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g, labels: map[string]*cfgBlock{}}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.cur.addSucc(g.exit)
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// labelBlock returns (creating on first reference) the block a label names,
// so forward gotos resolve before the labeled statement is reached.
func (b *cfgBuilder) labelBlock(name string) *cfgBlock {
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock()
		b.labels[name] = blk
	}
	return blk
}

// emit appends a node to the current block (dropped in dead code).
func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

// startBlock makes blk current, linking it from the previous block when the
// previous block falls through.
func (b *cfgBuilder) startBlock(blk *cfgBlock) {
	if b.cur != nil {
		b.cur.addSucc(blk)
	}
	b.cur = blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the enclosing LabeledStmt's name when
// the statement is its direct body (so `L: for {...}` registers L on the
// loop's scope).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.startBlock(target)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(s.Cond)
		condBlk := b.cur
		after := b.newBlock()
		thenBlk := b.newBlock()
		if condBlk != nil {
			condBlk.addSucc(thenBlk)
		}
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(after)
		}
		if s.Else != nil {
			elseBlk := b.newBlock()
			if condBlk != nil {
				condBlk.addSucc(elseBlk)
			}
			b.cur = elseBlk
			b.stmt(s.Else, "")
			if b.cur != nil {
				b.cur.addSucc(after)
			}
		} else if condBlk != nil {
			condBlk.addSucc(after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		cond := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := cond
		if s.Post != nil {
			post = b.newBlock()
		}
		b.startBlock(cond)
		if s.Cond != nil {
			b.emit(s.Cond)
			cond.addSucc(after)
		}
		cond.addSucc(body)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: after, continueTo: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if b.cur != nil {
			b.cur.addSucc(post)
		}
		if s.Post != nil {
			b.cur = post
			b.emit(s.Post)
			post.addSucc(cond)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.startBlock(head)
		// The range head: X evaluation plus key/value assignment. The loop
		// body is its own block — emitting the whole RangeStmt here would
		// double-count its subtree.
		b.emit(s.X)
		if s.Key != nil {
			b.emit(s.Key)
		}
		if s.Value != nil {
			b.emit(s.Value)
		}
		head.addSucc(body)
		head.addSucc(after)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if b.cur != nil {
			b.cur.addSucc(head)
		}
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var tag ast.Node
		var bodyList []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init, tag, bodyList = sw.Init, sw.Tag, sw.Body.List
		case *ast.TypeSwitchStmt:
			init, tag, bodyList = sw.Init, sw.Assign, sw.Body.List
		}
		if init != nil {
			b.emit(init)
		}
		if tag != nil {
			b.emit(tag)
		}
		head := b.cur
		after := b.newBlock()
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: after})
		var clauseBlocks []*cfgBlock
		var clauses []*ast.CaseClause
		hasDefault := false
		for _, cs := range bodyList {
			cc, ok := cs.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			blk := b.newBlock()
			if head != nil {
				head.addSucc(blk)
			}
			clauseBlocks = append(clauseBlocks, blk)
			clauses = append(clauses, cc)
		}
		for i, cc := range clauses {
			b.cur = clauseBlocks[i]
			for _, e := range cc.List {
				b.emit(e)
			}
			fallsThrough := false
			for _, cs := range cc.Body {
				if br, ok := cs.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					fallsThrough = true
					continue
				}
				b.stmt(cs, "")
			}
			if b.cur != nil {
				if fallsThrough && i+1 < len(clauseBlocks) {
					b.cur.addSucc(clauseBlocks[i+1])
				} else {
					b.cur.addSucc(after)
				}
			}
		}
		if !hasDefault && head != nil {
			head.addSucc(after)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: after})
		for _, cs := range s.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			if head != nil {
				head.addSucc(blk)
			}
			b.cur = blk
			if cc.Comm != nil {
				b.emit(cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.cur.addSucc(after)
			}
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.emit(s)
		if b.cur != nil {
			b.cur.addSucc(b.g.exit)
		}
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			if b.cur != nil {
				b.cur.addSucc(b.labelBlock(s.Label.Name))
			}
			b.cur = nil
		case token.BREAK:
			if b.cur != nil {
				if t := b.findScope(s.Label, true); t != nil {
					b.cur.addSucc(t)
				}
			}
			b.cur = nil
		case token.CONTINUE:
			if b.cur != nil {
				if t := b.findScope(s.Label, false); t != nil {
					b.cur.addSucc(t)
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// handled inside the switch lowering; reaching here means a
			// malformed tree — drop to dead code rather than crash.
			b.cur = nil
		}

	default:
		b.emit(s)
		if isTerminalStmt(s) {
			if b.cur != nil {
				b.cur.addSucc(b.g.exit)
			}
			b.cur = nil
		}
	}
}

// findScope resolves a break/continue target. label nil means innermost.
func (b *cfgBuilder) findScope(label *ast.Ident, isBreak bool) *cfgBlock {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if label != nil && sc.label != label.Name {
			continue
		}
		if isBreak {
			return sc.breakTo
		}
		if sc.continueTo != nil {
			return sc.continueTo
		}
		if label != nil {
			return nil
		}
	}
	return nil
}

// isTerminalStmt reports whether the statement never falls through: a
// panic(...) or a call to a function the runtime never returns from.
func isTerminalStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			switch {
			case pkg.Name == "os" && fn.Sel.Name == "Exit":
				return true
			case pkg.Name == "log" && (fn.Sel.Name == "Fatal" || fn.Sel.Name == "Fatalf" || fn.Sel.Name == "Fatalln"):
				return true
			}
		}
	}
	return false
}
