package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name + labels returns the same counter.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("counter not interned")
	}
	// Label order does not matter for interning.
	a := r.Counter("l_total", "", "x", "1", "y", "2")
	b := r.Counter("l_total", "", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label sets not canonicalized")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestHistogramBuckets pins the bucket assignment rule: an observation
// lands in the first bucket whose upper bound is >= the value, and bounds
// are inclusive.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 1} // {<=1}: 0.5,1.0  {<=2}: 1.5,2.0  {<=4}: 3,4  {+Inf}: 100
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if math.Abs(h.Sum()-112.0) > 1e-9 {
		t.Errorf("sum = %g, want 112", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 100 observations spread uniformly over (0, 40].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	cases := []struct{ q, want, tol float64 }{
		{0.25, 10, 1},
		{0.5, 20, 1},
		{0.99, 39.6, 1},
		{0, 0, 1},
		{1, 40, 1e-9},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("Quantile(%g) = %g, want %g +- %g", c.q, got, c.want, c.tol)
		}
	}
	// Values beyond every bound clamp to the largest finite bound.
	over := newHistogram([]float64{1, 2})
	over.Observe(50)
	if got := over.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %g, want 2", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(DefBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.003)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-24.0) > 1e-6 {
		t.Fatalf("sum = %g, want 24", h.Sum())
	}
}

func TestEscapeLabel(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "path", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %q", b.String())
	}
}

// TestExpositionGolden locks the exposition output for a representative
// registry down to the byte, so format drift is caught even when the
// strict parser would still accept the result.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("truss_http_requests_total", "HTTP requests served.", "route", "/healthz", "code", "200")
	c.Add(3)
	g := r.Gauge("truss_http_inflight", "Requests currently in flight.")
	g.Set(2)
	h := r.Histogram("truss_http_request_seconds", "Request latency.", []float64{0.01, 0.1, 1}, "route", "/healthz")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP truss_http_requests_total HTTP requests served.
# TYPE truss_http_requests_total counter
truss_http_requests_total{code="200",route="/healthz"} 3
# HELP truss_http_inflight Requests currently in flight.
# TYPE truss_http_inflight gauge
truss_http_inflight 2
# HELP truss_http_request_seconds Request latency.
# TYPE truss_http_request_seconds histogram
truss_http_request_seconds_bucket{route="/healthz",le="0.01"} 1
truss_http_request_seconds_bucket{route="/healthz",le="0.1"} 2
truss_http_request_seconds_bucket{route="/healthz",le="1"} 2
truss_http_request_seconds_bucket{route="/healthz",le="+Inf"} 3
truss_http_request_seconds_sum{route="/healthz"} 5.055
truss_http_request_seconds_count{route="/healthz"} 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}

	// The golden text must also pass the strict parser, and the parsed
	// values must read back.
	samples, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("golden output rejected by strict parser: %v", err)
	}
	if got := samples.Value("truss_http_requests_total", "route", "/healthz", "code", "200"); got != 3 {
		t.Fatalf("parsed counter = %g, want 3", got)
	}
	if got := samples.Value("truss_http_request_seconds_count", "route", "/healthz"); got != 3 {
		t.Fatalf("parsed histogram count = %g, want 3", got)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	bad := []string{
		"metric{a=b} 1\n",               // unquoted label value
		"# TYPE m counter\nm 1.5.3\n",   // unparseable value
		"# TYPE m wat\nm 1\n",           // unknown type
		"m{} 1\nm{} 2\n",                // duplicate series
		"# TYPE m histogram\nm_sum 1\n", // histogram without _count
		"# TYPE m counter\nm{a=\"x\"\n", // unterminated sample
		"# TYPE m histogram\nm_bucket{le=\"1\"} 2\nm_bucket{le=\"+Inf\"} 1\nm_sum 1\nm_count 1\n", // non-monotonic buckets
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("parser accepted malformed input %q", in)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}
