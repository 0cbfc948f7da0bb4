package compare

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dfcheck/internal/factsvc"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// postFacts sends one /v1/facts batch through h and decodes the answer,
// requiring a 200.
func postFacts(t *testing.T, h http.Handler, exprs ...string) []factsvc.ExprAnswer {
	t.Helper()
	body, _ := json.Marshal(map[string][]string{"exprs": exprs})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/facts", strings.NewReader(string(body))))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", w.Code, w.Body.String())
	}
	var resp struct {
		Results []factsvc.ExprAnswer `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, w.Body.String())
	}
	if len(resp.Results) != len(exprs) {
		t.Fatalf("%d answers for %d expressions", len(resp.Results), len(exprs))
	}
	for i, a := range resp.Results {
		if a.Error != "" {
			t.Fatalf("answer %d: %s", i, a.Error)
		}
	}
	return resp.Results
}

// One batch of 8 byte-identical copies and an alpha-variant, answered
// concurrently by the fact service over a cached comparator: the
// comparator's cache and flight are the only dedup on the query path,
// and they solve the expression, and so each of its 8 analyses, once.
// The other 8 lookups are cache hits or flight adoptions.
func TestFactServiceSolvesEachAnalysisOnce(t *testing.T) {
	if _, err := (&Comparator{Analyzer: &llvmport.Analyzer{}}).NewFactService(factsvc.Config{}); err == nil {
		t.Fatal("NewFactService accepted a comparator without a Cache")
	}
	reg := metrics.NewRegistry()
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 8, Cache: rescache.New(), Metrics: reg}
	svc, err := c.NewFactService(factsvc.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	exprs := make([]string, 8, 9)
	for i := range exprs {
		exprs[i] = flightExprSrc
	}
	variant := strings.NewReplacer("%x", "%p", "%y", "%q").Replace(flightExprSrc)
	exprs = append(exprs, variant)
	answers := postFacts(t, svc.Handler(), exprs...)

	first := answers[0]
	if len(first.Facts) != 7+2 || len(first.Hash) != 16 {
		t.Fatalf("answer 0 = %+v, want a hash and 9 facts", first)
	}
	for i, a := range answers {
		if a.Hash != first.Hash {
			t.Errorf("answer %d hash %s, want %s", i, a.Hash, first.Hash)
		}
		for j := 0; j < 7; j++ {
			if a.Facts[j] != first.Facts[j] {
				t.Errorf("answer %d scalar fact %d = %v, want %v", i, j, a.Facts[j], first.Facts[j])
			}
		}
	}
	if got := answers[8].Facts[7].Analysis; got != "demanded bits (p)" {
		t.Errorf("alpha-variant's first demanded label = %q, want its own variable p", got)
	}
	hits := c.Cache.Stats().Hits
	collapsed := reg.Counter("flight_collapsed").Value()
	if got := int64(hits) + collapsed; got != 8 {
		t.Errorf("cache hits %d + flight_collapsed %d = %d, want 8 (the expression solved once for 9 queries)",
			hits, collapsed, got)
	}
}

// Demanded bits come back under the variables the client submitted, in
// declaration order, not under the canonical form's names.
func TestFactServiceNamesDemandedBitsBySubmittedVars(t *testing.T) {
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: rescache.New()}
	svc, err := c.NewFactService(factsvc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := "%a:i8 = var\n%b:i8 = var\n%0:i8 = and 15:i8, %a\n%1:i8 = or %0, %b\ninfer %1"
	facts := postFacts(t, svc.Handler(), src)[0].Facts
	if len(facts) != 7+2 {
		t.Fatalf("%d facts, want 9: %v", len(facts), facts)
	}
	want := []factsvc.Fact{
		{Analysis: "demanded bits (a)", Fact: "00001111"},
		{Analysis: "demanded bits (b)", Fact: "11111111"},
	}
	for i, w := range want {
		if facts[7+i] != w {
			t.Errorf("demanded fact %d = %v, want %v", i, facts[7+i], w)
		}
	}
}
