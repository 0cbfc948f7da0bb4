package absint

import (
	"strings"
	"testing"

	"dfcheck/internal/apint"
)

var allDomains = []Domain{KnownBits, IntegerRange, SignBits, NonZero, Negative, NonNegative, PowerOfTwo, Tnums, Strides}

// gamma enumerates γ(a) at width w.
func gamma(d Domain, w uint, a Elem) []apint.Int {
	var out []apint.Int
	for x, max := uint64(0), uint64(1)<<w; x < max; x++ {
		if v := apint.New(w, x); d.Contains(a, v) {
			out = append(out, v)
		}
	}
	return out
}

func subset(a, b []apint.Int) bool {
	in := make(map[uint64]bool, len(b))
	for _, v := range b {
		in[v.Uint64()] = true
	}
	for _, v := range a {
		if !in[v.Uint64()] {
			return false
		}
	}
	return true
}

func enumAll(d Domain, w uint) []Elem {
	var out []Elem
	d.Enum(w, func(e Elem) bool { out = append(out, e); return true })
	return out
}

// TestEnumCounts pins each domain's element count: 3^w conflict-free
// known-bits (and tnum) elements, 2^w·(2^w−1)+1 non-empty ranges, w
// sign-bit levels, 2^w singletons plus 4^(w−1) true progressions for
// strides, and the two points of each predicate lattice.
func TestEnumCounts(t *testing.T) {
	for w := uint(1); w <= 3; w++ {
		pow3, pow4 := 1, 1
		for i := uint(0); i < w; i++ {
			pow3 *= 3
		}
		for i := uint(1); i < w; i++ {
			pow4 *= 4
		}
		n := int(uint64(1) << w)
		wantCounts := map[string]int{
			"known bits":    pow3,
			"integer range": n*(n-1) + 1,
			"sign bits":     int(w),
			"non-zero":      2,
			"negative":      2,
			"non-negative":  2,
			"power of two":  2,
			"tnum":          pow3,
			"stride":        n + pow4,
		}
		for _, d := range allDomains {
			if got := len(enumAll(d, w)); got != wantCounts[d.Name()] {
				t.Errorf("%s at w=%d: Enum yields %d elements, want %d", d.Name(), w, got, wantCounts[d.Name()])
			}
		}
	}
}

// TestTopBottom: γ(Top) is everything, and IsBottom identifies exactly
// the empty-concretization elements (the predicate lattices have none).
func TestTopBottom(t *testing.T) {
	for w := uint(1); w <= 3; w++ {
		for _, d := range allDomains {
			if got := len(gamma(d, w, d.Top(w))); got != int(uint64(1)<<w) {
				t.Errorf("%s at w=%d: |γ(Top)| = %d, want %d", d.Name(), w, got, 1<<w)
			}
			bot := d.Bottom(w)
			if d.IsBottom(bot) {
				if got := len(gamma(d, w, bot)); got != 0 {
					t.Errorf("%s at w=%d: IsBottom(Bottom) but |γ(Bottom)| = %d", d.Name(), w, got)
				}
			}
			// Enum must only yield elements with non-empty concretization.
			d.Enum(w, func(e Elem) bool {
				if len(gamma(d, w, e)) == 0 {
					t.Errorf("%s at w=%d: Enum yields %s with empty γ", d.Name(), w, d.Format(e))
					return false
				}
				if d.IsBottom(e) {
					t.Errorf("%s at w=%d: Enum yields bottom element %s", d.Name(), w, d.Format(e))
					return false
				}
				return true
			})
		}
	}
}

// TestBottomContract pins the Bottom/IsBottom contract for every
// registered domain: Bottom is the least element (below everything Enum
// yields), it is a Join identity and a Meet absorber, IsBottom agrees
// exactly with empty concretization, and α of the empty set is Bottom.
func TestBottomContract(t *testing.T) {
	for w := uint(1); w <= 3; w++ {
		for _, d := range allDomains {
			bot := d.Bottom(w)
			if got, want := d.IsBottom(bot), len(gamma(d, w, bot)) == 0; got != want {
				t.Errorf("%s at w=%d: IsBottom(Bottom) = %t but |γ(Bottom)| = 0 is %t",
					d.Name(), w, got, want)
			}
			if !d.Eq(d.Abstract(w, nil), bot) {
				t.Errorf("%s at w=%d: α(∅) = %s, want Bottom %s",
					d.Name(), w, d.Format(d.Abstract(w, nil)), d.Format(bot))
			}
			d.Enum(w, func(e Elem) bool {
				if !d.Leq(bot, e) {
					t.Errorf("%s at w=%d: Bottom is not below %s", d.Name(), w, d.Format(e))
					return false
				}
				if !d.Eq(d.Join(bot, e), e) {
					t.Errorf("%s at w=%d: Join(Bottom, %s) is not an identity", d.Name(), w, d.Format(e))
					return false
				}
				if !d.Eq(d.Join(e, bot), e) {
					t.Errorf("%s at w=%d: Join(%s, Bottom) is not an identity", d.Name(), w, d.Format(e))
					return false
				}
				if !d.Eq(d.Meet(bot, e), bot) || !d.Eq(d.Meet(e, bot), bot) {
					t.Errorf("%s at w=%d: Meet with Bottom does not absorb on %s", d.Name(), w, d.Format(e))
					return false
				}
				return true
			})
		}
	}
}

// TestLeqMatchesGamma: the lattice order must coincide with
// concretization inclusion on every enumerated pair.
func TestLeqMatchesGamma(t *testing.T) {
	for w := uint(1); w <= 2; w++ {
		for _, d := range allDomains {
			es := enumAll(d, w)
			gs := make([][]apint.Int, len(es))
			for i, e := range es {
				gs[i] = gamma(d, w, e)
			}
			for i, a := range es {
				for j, b := range es {
					if got, want := d.Leq(a, b), subset(gs[i], gs[j]); got != want {
						t.Fatalf("%s at w=%d: Leq(%s, %s) = %t, γ-inclusion says %t",
							d.Name(), w, d.Format(a), d.Format(b), got, want)
					}
					if got, want := d.Eq(a, b), i == j; got != want {
						t.Fatalf("%s at w=%d: Eq(%s, %s) = %t on distinct enumerated elements",
							d.Name(), w, d.Format(a), d.Format(b), got)
					}
				}
			}
		}
	}
}

// TestJoinIsLub: Join must be an upper bound of both arguments, and for
// the true lattices it must also be the least one. The wrapped-interval
// poset has no unique least upper bound (two disjoint singletons can be
// covered two incomparable ways around the circle), so for ranges the
// requirement is minimality by concretization size instead.
func TestJoinIsLub(t *testing.T) {
	for w := uint(1); w <= 2; w++ {
		for _, d := range allDomains {
			es := enumAll(d, w)
			for _, a := range es {
				for _, b := range es {
					j := d.Join(a, b)
					if !d.Leq(a, j) || !d.Leq(b, j) {
						t.Fatalf("%s at w=%d: Join(%s, %s) = %s is not an upper bound",
							d.Name(), w, d.Format(a), d.Format(b), d.Format(j))
					}
					jSize := len(gamma(d, w, j))
					for _, c := range es {
						if !d.Leq(a, c) || !d.Leq(b, c) {
							continue
						}
						if d == IntegerRange {
							if len(gamma(d, w, c)) < jSize {
								t.Fatalf("%s at w=%d: Join(%s, %s) = %s beaten by smaller bound %s",
									d.Name(), w, d.Format(a), d.Format(b), d.Format(j), d.Format(c))
							}
						} else if !d.Leq(j, c) {
							t.Fatalf("%s at w=%d: Join(%s, %s) = %s is not least (%s is smaller)",
								d.Name(), w, d.Format(a), d.Format(b), d.Format(j), d.Format(c))
						}
					}
				}
			}
		}
	}
}

// TestMeetSound: γ(Meet(a,b)) must cover γ(a) ∩ γ(b), and — what the
// consistency lint relies on — an empty intersection must surface as an
// element the lint recognizes as dead (bottom for the domains that have
// one). The range meet (LLVM's Intersect) is approximate in general but
// exact for emptiness.
func TestMeetSound(t *testing.T) {
	for w := uint(1); w <= 2; w++ {
		for _, d := range allDomains {
			es := enumAll(d, w)
			for _, a := range es {
				for _, b := range es {
					m := d.Meet(a, b)
					var inter []apint.Int
					for _, v := range gamma(d, w, a) {
						if d.Contains(b, v) {
							inter = append(inter, v)
						}
					}
					if !subset(inter, gamma(d, w, m)) {
						t.Fatalf("%s at w=%d: γ(Meet(%s, %s)) misses part of the intersection",
							d.Name(), w, d.Format(a), d.Format(b))
					}
					if len(inter) == 0 && (d == KnownBits || d == IntegerRange || d == SignBits || d == Tnums || d == Strides) {
						if !d.IsBottom(m) {
							t.Fatalf("%s at w=%d: Meet(%s, %s) has empty intersection but is not bottom",
								d.Name(), w, d.Format(a), d.Format(b))
						}
					}
				}
			}
		}
	}
}

// TestAbstractIsAlpha: Abstract must contain every input value and be at
// least as small (by concretization size) as every enumerated element
// that does — the best-abstraction property the precision grading of the
// verifier depends on.
func TestAbstractIsAlpha(t *testing.T) {
	for w := uint(1); w <= 2; w++ {
		max := uint64(1) << w
		for _, d := range allDomains {
			es := enumAll(d, w)
			for set := uint64(1); set < uint64(1)<<max; set++ {
				var vs []apint.Int
				for x := uint64(0); x < max; x++ {
					if set&(1<<x) != 0 {
						vs = append(vs, apint.New(w, x))
					}
				}
				a := d.Abstract(w, vs)
				for _, v := range vs {
					if !d.Contains(a, v) {
						t.Fatalf("%s at w=%d: Abstract(%v) = %s misses %s", d.Name(), w, vs, d.Format(a), v)
					}
				}
				size := len(gamma(d, w, a))
				for _, e := range es {
					covers := true
					for _, v := range vs {
						if !d.Contains(e, v) {
							covers = false
							break
						}
					}
					if covers && len(gamma(d, w, e)) < size {
						t.Fatalf("%s at w=%d: Abstract(%v) = %s (|γ|=%d) beaten by %s (|γ|=%d)",
							d.Name(), w, vs, d.Format(a), size, d.Format(e), len(gamma(d, w, e)))
					}
				}
			}
		}
	}
}

// TestTransferDomainsByNames: the comparator's -domains accepts only the
// transfer domains. A fact-domain name such as kb or range extends no
// lint, so it must be refused with the accepted names rather than
// ignored, while domain-check's DomainsByNames keeps all five.
func TestTransferDomainsByNames(t *testing.T) {
	doms, err := TransferDomainsByNames("tnum, stride")
	if err != nil || len(doms) != 2 || doms[0] != Tnums || doms[1] != Strides {
		t.Fatalf("tnum, stride: got %v, %v", doms, err)
	}
	if doms, err := TransferDomainsByNames(""); doms != nil || err != nil {
		t.Fatalf("empty flag: got %v, %v", doms, err)
	}
	for _, csv := range []string{"kb", "range,sign-bits", "tnum,known-bits", "bogus"} {
		_, err := TransferDomainsByNames(csv)
		if err == nil || !strings.Contains(err.Error(), "tnum, stride") {
			t.Errorf("%q: got error %v, want a refusal naming tnum, stride", csv, err)
		}
	}
	if doms, err := DomainsByNames("kb,sign-bits,range,tnum,stride"); err != nil || len(doms) != 5 {
		t.Fatalf("DomainsByNames refused a verifier domain: %v, %v", doms, err)
	}
}
