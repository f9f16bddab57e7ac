package lint

// White-box tests for the control-flow layer lockdiscipline is built on:
// block structure and the paths through it, stated as dominance and
// post-dominance computed by reachability. Functions are parsed from
// snippets so each test names exactly the shape it pins.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses `func f(...) {...}` source and returns the body's CFG.
func parseFunc(t *testing.T, src string) (*token.FileSet, *funcCFG) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fset, buildCFG(fd.Body)
		}
	}
	t.Fatal("no function in snippet")
	return nil, nil
}

// site locates one call inside a CFG: its block and its position in the
// block's node list.
type site struct {
	block *cfgBlock
	index int
	pos   token.Pos
}

// callSites returns the sites of every call to the named function, walking
// each block's nodes the way lockdiscipline does: nested function literals
// are separate functions and are not descended into.
func callSites(g *funcCFG, name string) []site {
	var out []site
	for _, blk := range g.blocks {
		for i, n := range blk.nodes {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == name {
						out = append(out, site{block: blk, index: i, pos: m.Pos()})
					}
				}
				return true
			})
		}
	}
	return out
}

// reaches reports whether to is reachable from from without passing through
// avoid (nil avoids nothing).
func reaches(from, to, avoid *cfgBlock) bool {
	seen := map[*cfgBlock]bool{}
	var walk func(b *cfgBlock) bool
	walk = func(b *cfgBlock) bool {
		if b == avoid || seen[b] {
			return false
		}
		if b == to {
			return true
		}
		seen[b] = true
		for _, s := range b.succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// dominates reports whether every path from the entry to b passes a first:
// a comes earlier in the same block, or b's block cannot be reached once
// a's block is removed.
func dominates(g *funcCFG, a, b site) bool {
	if a.block == b.block {
		return a.index < b.index || (a.index == b.index && a.pos < b.pos)
	}
	return !reaches(g.entry, b.block, a.block)
}

// postDominates reports whether every path from block b to the exit passes
// through block a.
func postDominates(g *funcCFG, a, b *cfgBlock) bool {
	return a == b || !reaches(b, g.exit, a)
}

// one returns the single site of the named call, failing otherwise.
func one(t *testing.T, g *funcCFG, name string) site {
	t.Helper()
	s := callSites(g, name)
	if len(s) != 1 {
		t.Fatalf("callSites(%s) = %d sites, want 1", name, len(s))
	}
	return s[0]
}

func TestCFGStraightLineDominance(t *testing.T) {
	_, g := parseFunc(t, `
func f() {
	first()
	second()
}`)
	a, b := one(t, g, "first"), one(t, g, "second")
	if !dominates(g, a, b) {
		t.Error("first() must dominate second() in straight-line code")
	}
	if dominates(g, b, a) {
		t.Error("second() must not dominate first()")
	}
}

func TestCFGBranchDominance(t *testing.T) {
	_, g := parseFunc(t, `
func f(ok bool) {
	before()
	if ok {
		inside()
	}
	after()
}`)
	before, inside, after := one(t, g, "before"), one(t, g, "inside"), one(t, g, "after")
	if !dominates(g, before, after) {
		t.Error("before() must dominate after(): it precedes the branch")
	}
	if dominates(g, inside, after) {
		t.Error("inside() must not dominate after(): the else path skips it")
	}
	if !dominates(g, before, inside) {
		t.Error("before() must dominate inside()")
	}
}

func TestCFGBothBranchesNoDominance(t *testing.T) {
	// A site in each arm: neither dominates the join, since dominance needs
	// a single covering site. (lockdiscipline's meet-over-paths handles the
	// both-arms case.)
	_, g := parseFunc(t, `
func f(ok bool) {
	if ok {
		inside()
	} else {
		elsewhere()
	}
	after()
}`)
	inside, elsewhere, after := one(t, g, "inside"), one(t, g, "elsewhere"), one(t, g, "after")
	if dominates(g, inside, after) || dominates(g, elsewhere, after) {
		t.Error("neither arm alone may dominate the join point")
	}
}

func TestCFGEarlyReturnMakesRemainderDominated(t *testing.T) {
	_, g := parseFunc(t, `
func f(err error) {
	if err != nil {
		return
	}
	guarded()
	after()
}`)
	guarded, after := one(t, g, "guarded"), one(t, g, "after")
	if !dominates(g, guarded, after) {
		t.Error("guarded() must dominate after(): the error path returned")
	}
}

func TestCFGPanicIsTerminal(t *testing.T) {
	_, g := parseFunc(t, `
func f(bad bool) {
	if bad {
		panic("boom")
	}
	survivor()
}`)
	// The panic arm must not fall through into survivor()'s block: the
	// panic block's only successor is the exit.
	site := one(t, g, "survivor")
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				for _, s := range blk.succs {
					if s == site.block {
						t.Error("panic block must not flow into the code after the if")
					}
					if s != g.exit {
						t.Errorf("panic block successor is block %d, want exit", s.index)
					}
				}
			}
		}
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	_, g := parseFunc(t, `
func f(xs []int) {
	for _, x := range xs {
		body(x)
	}
	after()
}`)
	body, after := one(t, g, "body"), one(t, g, "after")
	if dominates(g, body, after) {
		t.Error("loop body must not dominate the code after the loop (zero iterations skip it)")
	}
	// The body block must have a path back to its own block (through the
	// range head): loops are cyclic.
	seen := map[*cfgBlock]bool{}
	var reach func(b *cfgBlock)
	reach = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			reach(s)
		}
	}
	for _, s := range body.block.succs {
		reach(s)
	}
	if !seen[body.block] {
		t.Error("range body must be reachable from itself via the back edge")
	}
}

func TestCFGPostDominators(t *testing.T) {
	_, g := parseFunc(t, `
func f(ok bool) {
	if ok {
		inside()
	}
	always()
}`)
	inside, always := one(t, g, "inside"), one(t, g, "always")
	if !postDominates(g, always.block, inside.block) {
		t.Error("always() block must post-dominate the branch arm")
	}
	if postDominates(g, inside.block, always.block) {
		t.Error("the branch arm must not post-dominate the join")
	}
}

func TestCFGGotoResolvesForward(t *testing.T) {
	_, g := parseFunc(t, `
func f(skip bool) {
	if skip {
		goto done
	}
	work()
done:
	after()
}`)
	work, after := one(t, g, "work"), one(t, g, "after")
	if dominates(g, work, after) {
		t.Error("work() must not dominate after(): the goto bypasses it")
	}
}

func TestCFGSitesSkipFuncLits(t *testing.T) {
	_, g := parseFunc(t, `
func f() {
	outer()
	go func() {
		inner()
	}()
}`)
	// The literal is a separate function: none of its body is lowered into
	// f's blocks, only the go statement that holds it is a node.
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if _, isGo := n.(*ast.GoStmt); isGo {
				continue
			}
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "inner" {
						t.Errorf("block %d holds a statement of the literal's body", blk.index)
					}
				}
				return true
			})
		}
	}
	if n := len(callSites(g, "inner")); n != 0 {
		t.Errorf("sites must not descend into function literals, found %d inner() sites", n)
	}
	if n := len(callSites(g, "outer")); n != 1 {
		t.Errorf("outer() sites = %d, want 1", n)
	}
}

func TestCFGSwitchClauses(t *testing.T) {
	_, g := parseFunc(t, `
func f(x int) {
	switch x {
	case 1:
		caseOne()
	case 2:
		caseTwo()
	}
	after()
}`)
	c1, c2, after := one(t, g, "caseOne"), one(t, g, "caseTwo"), one(t, g, "after")
	if dominates(g, c1, after) || dominates(g, c2, after) {
		t.Error("no single switch clause may dominate the code after the switch")
	}
	if dominates(g, c1, c2) || dominates(g, c2, c1) {
		t.Error("sibling clauses must not dominate each other")
	}
}
