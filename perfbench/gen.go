package main

import (
	"fmt"
	"math/rand"
	"strings"

	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
)

// Module sizes the cold-static generator accepts. They put a request
// well above the bundled benchmarks (xli's dispatch function has 63
// blocks) so every cold request spends most of its time in the solver.
const (
	genMinBlocks   = 200
	genMaxBlocks   = 300
	genMinLargest  = 60
	genMaxLargest  = 120
	genMaxAttempts = 200
)

// genModule returns the Mini-C source of module index of the cold-static
// workload under seed. The same (seed, index) always gives the same
// bytes. Drafts whose lowered size falls outside the stated block ranges
// are redrawn from the same random stream.
func genModule(seed int64, index int) (string, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)*7_919 + 1))
	for attempt := 0; attempt < genMaxAttempts; attempt++ {
		src := draftModule(rng)
		mod, err := compileSource(src)
		if err != nil {
			return "", fmt.Errorf("generated module does not compile: %w", err)
		}
		total, largest := moduleSize(mod)
		if total >= genMinBlocks && total <= genMaxBlocks && largest >= genMinLargest && largest <= genMaxLargest {
			return src, nil
		}
	}
	return "", fmt.Errorf("no module within the size limits after %d drafts (seed %d, index %d)", genMaxAttempts, seed, index)
}

// compileSource runs the front end the server runs on inline source.
func compileSource(src string) (*ir.Module, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := minic.Check(prog)
	if err != nil {
		return nil, err
	}
	return lower.Program(info)
}

// moduleSize returns the module's block count and its largest function's.
func moduleSize(mod *ir.Module) (total, largest int) {
	for _, f := range mod.Funcs {
		total += len(f.Blocks)
		largest = max(largest, len(f.Blocks))
	}
	return total, largest
}

// gen writes one module. Functions only call functions with a higher
// index, so the call graph is acyclic. The modules are only ever
// profiled statically, so nothing requires them to terminate if run.
type gen struct {
	rng *rand.Rand
	b   strings.Builder
	nf  int // number of functions
	fi  int // function being written
	ind int // indentation depth
}

// draftModule writes one candidate module: a main plus helpers, one of
// them large (it dominates the solve, as dispatch loops do in real
// programs).
func draftModule(rng *rand.Rand) string {
	g := &gen{rng: rng, nf: 5 + rng.Intn(4)}
	g.b.WriteString("global tab[64];\nglobal acc;\n\n")
	big := 1 + rng.Intn(g.nf-1)
	for fi := g.nf - 1; fi >= 0; fi-- {
		budget := 18 + rng.Intn(22)
		if fi == big {
			budget = 80 + rng.Intn(25)
		}
		g.function(fi, budget)
	}
	return g.b.String()
}

func (g *gen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) function(fi, budget int) {
	g.fi = fi
	if fi == 0 {
		g.line("func main(n) {")
		g.ind++
		g.line("var a = n;")
		g.line("var b = n + %d;", g.rng.Intn(50))
	} else {
		g.line("func f%d(a, b) {", fi)
		g.ind++
	}
	g.line("var x = a + %d;", g.rng.Intn(10))
	g.line("var y = b * %d;", 1+g.rng.Intn(5))
	g.line("var i;")
	g.line("var j;")
	if fi+1 < g.nf {
		// Chain every function to the next, so none is dead code with an
		// all-zero profile.
		g.line("y = f%d(x, y);", fi+1)
	}
	g.stmts(budget, 0)
	g.line("return x + y;")
	g.ind--
	g.line("}")
	g.line("")
}

// stmts emits statements until about budget blocks are spent.
func (g *gen) stmts(budget, depth int) {
	for budget > 0 {
		budget -= g.stmt(budget, depth)
	}
}

func (g *gen) cond() string {
	ops := []string{"<", ">", "==", "!=", "<=", ">="}
	vars := []string{"x", "y", "a", "b", "acc"}
	l := vars[g.rng.Intn(len(vars))]
	c := fmt.Sprintf("%s %s %d", l, ops[g.rng.Intn(len(ops))], g.rng.Intn(100))
	if g.rng.Intn(5) == 0 {
		c = fmt.Sprintf("%s && %s %% %d == 0", c, vars[g.rng.Intn(len(vars))], 2+g.rng.Intn(5))
	}
	return c
}

func (g *gen) simple() {
	switch g.rng.Intn(6) {
	case 0:
		g.line("x = x * %d + y %% %d;", 1+g.rng.Intn(7), 1+g.rng.Intn(13))
	case 1:
		g.line("y = y + x / %d;", 1+g.rng.Intn(9))
	case 2:
		g.line("tab[(x + %d) %% 64] = y;", g.rng.Intn(64))
	case 3:
		g.line("acc = acc + tab[(y + %d) %% 64];", g.rng.Intn(64))
	case 4:
		g.line("out(x);")
	default:
		if g.fi < g.nf-1 {
			callee := g.fi + 1 + g.rng.Intn(g.nf-1-g.fi)
			g.line("y = f%d(x, y + %d);", callee, g.rng.Intn(20))
		} else {
			g.line("x = x - y;")
		}
	}
}

// stmt emits one statement and returns the blocks it is expected to add.
func (g *gen) stmt(budget, depth int) int {
	if budget < 3 || depth >= 4 {
		g.simple()
		return 1
	}
	inner := min(budget-2, 2+g.rng.Intn(6+budget/4))
	switch k := g.rng.Intn(10); {
	case k < 3:
		g.line("if (%s) {", g.cond())
		g.block(inner, depth)
		if g.rng.Intn(2) == 0 {
			g.line("} else {")
			g.block(max(1, inner/2), depth)
			g.line("}")
			return inner + inner/2 + 3
		}
		g.line("}")
		return inner + 2
	case k < 5:
		v := "i"
		if depth%2 == 1 {
			v = "j"
		}
		g.line("for (%s = 0; %s < %d; %s = %s + 1) {", v, v, 2+g.rng.Intn(30), v, v)
		g.block(inner, depth)
		g.line("}")
		return inner + 3
	case k < 6:
		g.line("while (x > %d) {", g.rng.Intn(50))
		g.ind++
		g.line("x = x - %d;", 1+g.rng.Intn(9))
		g.ind--
		g.block(inner, depth)
		g.line("}")
		return inner + 3
	case k < 7:
		ways := 3 + g.rng.Intn(5)
		g.line("switch (x %% %d) {", ways+1)
		per := max(1, inner/ways)
		for c := 0; c < ways; c++ {
			g.line("case %d:", c)
			g.block(per, depth)
		}
		g.line("default:")
		g.ind++
		g.simple()
		g.ind--
		g.line("}")
		return per*ways + 3
	case k < 8:
		g.line("if (%s) {", g.cond())
		g.ind++
		g.line("return x;")
		g.ind--
		g.line("}")
		return 2
	default:
		g.simple()
		return 1
	}
}

func (g *gen) block(budget, depth int) {
	g.ind++
	g.stmts(budget, depth+1)
	g.ind--
}
