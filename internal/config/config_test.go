package config

import (
	"strings"
	"testing"

	"fpmix/internal/hl"
	"fpmix/internal/prog"
)

// buildProgram creates a module with two functions and a loop, giving the
// configuration tree functions, blocks and instructions to represent.
func buildProgram(t *testing.T) *prog.Module {
	t.Helper()
	p := hl.New("demo", hl.ModeF64)
	x := p.ScalarInit("x", 1.0)
	i := p.Int("i")
	main := p.Func("main")
	main.For(i, hl.IConst(0), hl.IConst(4), func() {
		main.Set(x, hl.Add(hl.Load(x), hl.Const(0.5)))
		main.Call("scale")
	})
	main.Out(hl.Load(x))
	main.Halt()
	sc := p.Func("scale")
	sc.If(hl.Gt(hl.Load(x), hl.Const(2)), func() {
		sc.Set(x, hl.Mul(hl.Load(x), hl.Const(0.25)))
	}, nil)
	sc.Ret()
	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromModuleStructure(t *testing.T) {
	m := buildProgram(t)
	c, err := FromModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Root.Kind != KindModule || c.Root.Name != "demo" {
		t.Fatalf("bad root: %+v", c.Root)
	}
	if len(c.Root.Children) != 2 {
		t.Fatalf("functions with candidates = %d, want 2", len(c.Root.Children))
	}
	got := len(c.Candidates())
	want := len(m.Candidates())
	if got != want {
		t.Errorf("config candidates = %d, module has %d", got, want)
	}
	for _, a := range m.Candidates() {
		if c.NodeAt(a) == nil {
			t.Errorf("no node for candidate %#x", a)
		}
	}
}

func TestEffectiveDefaultsToDouble(t *testing.T) {
	m := buildProgram(t)
	c, _ := FromModule(m)
	for addr, p := range c.Effective() {
		if p != Double {
			t.Errorf("default precision at %#x = %v", addr, p)
		}
	}
}

func TestEffectiveOverrides(t *testing.T) {
	m := buildProgram(t)
	c, _ := FromModule(m)
	// Flag one instruction single.
	first := c.Candidates()[0]
	c.NodeAt(first).Flag = Single
	eff := c.Effective()
	if eff[first] != Single {
		t.Error("instruction flag ignored")
	}
	// Flag its containing function double: must override the child.
	fn := c.Root.Children[0]
	fn.Flag = Double
	eff = c.Effective()
	if eff[first] != Double {
		t.Error("aggregate flag did not override child")
	}
	// Module-level single overrides everything.
	c.Root.Flag = Single
	for _, p := range c.Effective() {
		if p != Single {
			t.Error("module flag did not override")
			break
		}
	}
}

func TestIgnoreFlag(t *testing.T) {
	m := buildProgram(t)
	c, _ := FromModule(m)
	first := c.Candidates()[0]
	c.NodeAt(first).Flag = Ignore
	if c.Effective()[first] != Ignore {
		t.Error("ignore flag not effective")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := buildProgram(t)
	c, _ := FromModule(m)
	cl := c.Clone()
	first := c.Candidates()[0]
	cl.NodeAt(first).Flag = Single
	if c.NodeAt(first).Flag != Unset {
		t.Error("clone shares nodes with original")
	}
	if cl.Effective()[first] != Single {
		t.Error("clone index broken")
	}
	cl.Reset()
	if cl.NodeAt(first).Flag != Unset {
		t.Error("reset failed")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	m := buildProgram(t)
	c, _ := FromModule(m)
	// Decorate with a mix of flags.
	c.Root.Children[1].Flag = Single // whole function
	cands := c.Candidates()
	c.NodeAt(cands[0]).Flag = Single
	c.NodeAt(cands[1]).Flag = Double
	c.Annotate(cands[1], "pruned: exact-integer sink")
	text := c.String()

	got, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Read: %v\n%s", err, text)
	}
	if got.String() != text {
		t.Errorf("round trip mismatch:\n--- wrote\n%s--- reread\n%s", text, got.String())
	}
	// Effective maps must agree.
	a, b := c.Effective(), got.Effective()
	if len(a) != len(b) {
		t.Fatalf("effective sizes differ: %d vs %d", len(a), len(b))
	}
	for addr, p := range a {
		if b[addr] != p {
			t.Errorf("effective[%#x] = %v, want %v", addr, b[addr], p)
		}
	}
	if got.NodeAt(cands[1]).Note != "pruned: exact-integer sink" {
		t.Errorf("note lost in round trip: %q", got.NodeAt(cands[1]).Note)
	}
}

func TestFormatFigure3Shape(t *testing.T) {
	m := buildProgram(t)
	c, _ := FromModule(m)
	c.NodeAt(c.Candidates()[0]).Flag = Single
	text := c.String()
	if !strings.Contains(text, "MODULE01: demo") {
		t.Error("missing module header")
	}
	if !strings.Contains(text, "FUNC01: main()") {
		t.Error("missing function header")
	}
	if !strings.Contains(text, "BBLK") {
		t.Error("missing block entries")
	}
	if !strings.Contains(text, `"addsd`) && !strings.Contains(text, `"mulsd`) {
		t.Error("missing disassembly")
	}
	// Flag column: first line of a single-flagged instruction starts "s ".
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "s ") && strings.Contains(line, "INSN") {
			found = true
		}
	}
	if !found {
		t.Error("no single-flagged instruction line")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"x FUNC01: f()\n",            // bad flag
		"  BBLK01\n",                 // block outside function
		"  INSN01: 0x10 \"addsd\"\n", // insn outside block
		"  FUNC: f()\n",              // missing number
		"  INSN01: zz \"addsd\"\n",   // bad address (needs func+block first)
		"  JUNK\n",                   // unknown entry
		"  MODULE00:; 00\n",          // name renders as the note separator
		"  MODULE01: a ; \t; x\n",    // note renders as the note separator
		"",                           // empty
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
	// Bad address nested properly.
	bad := "  FUNC01: f()\n  BBLK01\n  INSN01: zz \"addsd\"\n"
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Error("bad address accepted")
	}
	// Multiple modules.
	multi := "  MODULE01: a\n  MODULE02: b\n"
	if _, err := Read(strings.NewReader(multi)); err == nil {
		t.Error("multiple modules accepted")
	}
}

func TestCountSingle(t *testing.T) {
	m := buildProgram(t)
	c, _ := FromModule(m)
	if c.CountSingle() != 0 {
		t.Error("fresh config has singles")
	}
	c.SetAll(Single)
	if got := c.CountSingle(); got != len(c.Candidates()) {
		t.Errorf("CountSingle = %d, want %d", got, len(c.Candidates()))
	}
}

func TestPrecisionStrings(t *testing.T) {
	for _, tc := range []struct {
		p Precision
		s string
	}{{Unset, ""}, {Double, "d"}, {Single, "s"}, {Ignore, "i"}} {
		if tc.p.String() != tc.s {
			t.Errorf("%v.String() = %q", tc.p, tc.p.String())
		}
		back, err := ParsePrecision(tc.s)
		if err != nil || back != tc.p {
			t.Errorf("ParsePrecision(%q) = %v, %v", tc.s, back, err)
		}
	}
	if _, err := ParsePrecision("q"); err == nil {
		t.Error("bad flag accepted")
	}
	for k := KindModule; k <= KindInsn; k++ {
		if k.String() == "?" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
