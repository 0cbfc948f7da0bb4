package core

import (
	"strings"
	"testing"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
)

func TestParseAutoSouper(t *testing.T) {
	f, err := ParseAuto("%x:i8 = var\n%0:i8 = add %x, 1:i8\ninfer %0")
	if err != nil {
		t.Fatal(err)
	}
	if f.Root.Op != ir.OpAdd {
		t.Errorf("root = %v", f.Root.Op)
	}
}

func TestParseAutoLLVM(t *testing.T) {
	f, err := ParseAuto("%0 = add i8 %x, 1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Root.Op != ir.OpAdd || f.Root.Width != 8 {
		t.Errorf("root = %v i%d", f.Root.Op, f.Root.Width)
	}
}

func TestParseAutoErrors(t *testing.T) {
	if _, err := ParseAuto("garbage = text"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCheckSourceFindsImprecision(t *testing.T) {
	results, err := CheckSource("%0 = shl i8 32, %x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var kb *compare.Result
	for i := range results {
		if results[i].Analysis == harvest.KnownBits {
			kb = &results[i]
		}
	}
	if kb == nil {
		t.Fatal("no known-bits result")
	}
	if kb.Outcome != compare.OracleMorePrecise {
		t.Errorf("outcome = %v, want oracle more precise", kb.Outcome)
	}
	if kb.OracleFact != "xxx00000" || kb.LLVMFact != "xxxxxxxx" {
		t.Errorf("facts = (%s, %s)", kb.OracleFact, kb.LLVMFact)
	}
}

func TestCheckWithInjectedBug(t *testing.T) {
	f := ir.MustParse(harvest.SoundnessTriggers[1].Source)
	results := Check(f, Options{Bugs: llvmport.BugConfig{SRemSignBits: true}})
	found := false
	for _, r := range results {
		if r.Analysis == harvest.SignBits && r.Outcome == compare.LLVMMorePrecise {
			found = true
		}
	}
	if !found {
		t.Error("injected bug not detected through core.Check")
	}
}

func TestInferAndCompilerFacts(t *testing.T) {
	f := ir.MustParse("%x:i8 = var (range=[1,3))\ninfer %x")
	all := Infer(f, 0)
	if !all.PowerOfTwo.Proved {
		t.Error("oracle power-of-two not proved")
	}
	cf := (&llvmport.Analyzer{}).Analyze(f)
	if cf.PowerOfTwo() {
		t.Error("LLVM port should miss this power-of-two fact")
	}
}

func TestFormatResults(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0")
	out := FormatResults(f, Check(f, Options{}))
	for _, want := range []string{
		"known bits from our tool: xxx00000",
		"known bits from llvm: xxxxxxxx",
		"souper is more precise",
		"demanded bits for %x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
