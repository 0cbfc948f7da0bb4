package llvmir

import (
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
)

// FuzzLLVMRoundTrip: Parse never panics on raw text, and every function
// ir.Parse accepts comes back from Print and Parse as the same code: the
// same text, so the same variable order, which fixes the packed input
// order the enumeration engine and the sweeps see.
func FuzzLLVMRoundTrip(f *testing.F) {
	f.Add("%a:i8 = var\n%b:i8 = var\n%0:i8 = sub %b, %a\ninfer %0")
	f.Add("%x:i8 = var (range=[-3,5))\n%y:i8 = var\n%0:i8 = addnw %y, %x\n%1:i1 = ult %0, 7:i8\n%2:i8 = select %1, %0, 0:i8\ninfer %2")
	f.Add("%a:i4 = var\n%b:i4 = var\n%s:i4 = var\n%0:i4 = fshl %a, %b, %s\n%1:i4 = rotr %0, %s\ninfer %1")
	f.Add("%x:i8 = var\n%y:i8 = var\n%0:i1 = uaddo %x, %y\n%1:i1 = ssubo %x, %y\n%2:i1 = and %0, %1\ninfer %2")
	for _, fr := range harvest.PaperFragments {
		f.Add(fr.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		Parse(src) // must not panic, whatever the text
		fn, err := ir.Parse(src)
		if err != nil {
			return
		}
		printed := Print(fn)
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed function does not parse: %v\n%s", err, printed)
		}
		if got, want := back.String(), fn.String(); got != want {
			t.Fatalf("round trip through\n%s\ngave\n%s\nwant\n%s", printed, got, want)
		}
	})
}
