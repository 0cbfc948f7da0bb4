package ir_test

import (
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
)

// FuzzParsePrint: no text makes Parse panic, and a function Parse
// accepts verifies and prints to text that parses back to a function
// printing the same text, so printing is a fixed point after one round.
func FuzzParsePrint(f *testing.F) {
	for _, fr := range harvest.PaperFragments {
		f.Add(fr.Source)
	}
	for _, tr := range harvest.SoundnessTriggers {
		f.Add(tr.Source)
	}
	f.Add("%x:i8 = var (range=[-3,5))\n%0:i8 = var\n%1:i8 = addnw %0, %x\n%2:i1 = ult %1, 7:i8\n%3:i8 = select %2, %1, 0\ninfer %3")
	f.Add("%x:i16 = var\n%0:i8 = trunc %x\n%1:i32 = sext %0\n%2:i32 = fshl %1, %1, 3:i32\ninfer %2")
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ir.Parse(src)
		if err != nil {
			return
		}
		if err := ir.Verify(fn); err != nil {
			t.Fatalf("Parse accepted a function that does not verify: %v\n%s", err, src)
		}
		text := fn.String()
		again, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("printed function does not parse: %v\n%s", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("printing is not a fixed point:\n%s\nprints as\n%s", text, got)
		}
	})
}
