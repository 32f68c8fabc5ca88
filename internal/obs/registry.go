// Package obs is Ginja's always-on observability subsystem: a
// concurrency-safe registry of named counters, gauges and bounded-memory
// streaming histograms, a Prometheus-text-format / JSON export surface
// (see http.go), and an instrumented cloud.ObjectStore wrapper (store.go).
//
// Every instrument here is fixed-size: counters and gauges are single
// atomics, histograms use fixed log-scaled buckets, so a production
// instance can run instrumented indefinitely. The hot-path
// cost of an update is one or two atomic operations; registration (the
// only locking path) happens once per instrument.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attaches dimension values to an instrument (e.g. op="put").
// Label names must match [a-zA-Z_][a-zA-Z0-9_]*; values are arbitrary and
// escaped on export.
type Labels map[string]string

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing value (float64 so it can carry
// seconds as well as counts, per Prometheus convention).
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v (v < 0 is ignored).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc increases the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// AddDuration adds d in seconds.
func (c *Counter) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down, or a function sampled at
// export time (see Registry.GaugeFunc).
type Gauge struct {
	bits atomic.Uint64

	mu sync.Mutex
	fn func() float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the sampled function value (for GaugeFunc gauges) or the
// last Set/Add result.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) setFunc(fn func() float64) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// series is one (name, labels) instrument instance.
type series struct {
	labels Labels // canonical copy
	key    string // rendered label set, export-ready
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups the series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histogram families only
	series map[string]*series
}

// Registry holds instruments, health checks and the trace-span ring. The
// zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	healthMu sync.Mutex
	health   map[string]func() error
	horder   []string

	spansMu sync.Mutex
	spans   *SpanRing
}

// NewRegistry returns an empty registry (span ring at default capacity).
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		health:   make(map[string]func() error),
		spans:    NewSpanRing(DefaultSpanRecent, DefaultSpanSlowest),
	}
}

// Spans returns the registry's trace-span ring. Instrumented subsystems
// record completed spans here whenever a registry is attached — capture is
// independent of any logger's level — and /tracez serves its snapshot.
func (r *Registry) Spans() *SpanRing {
	r.spansMu.Lock()
	defer r.spansMu.Unlock()
	return r.spans
}

// ConfigureSpans replaces the span ring with one retaining recentCap
// recent and slowCap slowest spans. Call before wiring the registry into a
// Ginja instance: subsystems capture the ring at construction, so spans
// recorded into a replaced ring are not visible to handlers any more.
func (r *Registry) ConfigureSpans(recentCap, slowCap int) *SpanRing {
	ring := NewSpanRing(recentCap, slowCap)
	r.spansMu.Lock()
	r.spans = ring
	r.spansMu.Unlock()
	return ring
}

// Counter returns the counter for (name, labels), registering it on first
// use. Re-registering with the same name and labels returns the same
// handle. Invalid names or a kind clash panic: instrument registration is
// programmer-controlled, not data-driven.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.register(name, help, kindCounter, labels, nil)
	return s.ctr
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.register(name, help, kindGauge, labels, nil)
	return s.gauge
}

// GaugeFunc registers a gauge whose value is sampled by fn at export time
// (queue depths, channel occupancy). Re-registering replaces the function,
// so a restarted subsystem can rebind its gauges to fresh state.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) *Gauge {
	s := r.register(name, help, kindGauge, labels, nil)
	s.gauge.setFunc(fn)
	return s.gauge
}

// Histogram returns the streaming histogram for (name, labels),
// registering it on first use. bounds are the ascending bucket upper
// bounds; nil uses LatencyBuckets(). Every series of a family shares the
// family's bounds (the bounds of the first registration win).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	s := r.register(name, help, kindHistogram, labels, bounds)
	return s.hist
}

func (r *Registry) register(name, help string, k kind, labels Labels, bounds []float64) *series {
	if err := validateMetricName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	key, canonical, err := renderLabels(labels)
	if err != nil {
		panic(fmt.Sprintf("obs: metric %s: %v", name, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if k == kindHistogram {
			if len(bounds) == 0 {
				bounds = LatencyBuckets()
			}
			if !sort.Float64sAreSorted(bounds) {
				panic(fmt.Sprintf("obs: metric %s: histogram bounds not ascending", name))
			}
		}
		f = &family{name: name, help: help, kind: k, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, k, f.kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: canonical, key: key}
		switch k {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram(f.bounds)
		}
		f.series[key] = s
	}
	return s
}

// validateMetricName enforces the Prometheus metric-name grammar.
func validateMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		if c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9') {
			continue
		}
		return fmt.Errorf("invalid metric name %q", name)
	}
	return nil
}

func validateLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("label name %q is reserved", name)
	}
	for i, c := range name {
		if c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9') {
			continue
		}
		return fmt.Errorf("invalid label name %q", name)
	}
	return nil
}

// renderLabels validates label names and produces the canonical,
// export-ready `{a="x",b="y"}` form (empty string for no labels) together
// with a defensive copy of the map.
func renderLabels(labels Labels) (string, Labels, error) {
	if len(labels) == 0 {
		return "", nil, nil
	}
	names := make([]string, 0, len(labels))
	for n := range labels {
		if err := validateLabelName(n); err != nil {
			return "", nil, err
		}
		names = append(names, n)
	}
	sort.Strings(names)
	canonical := make(Labels, len(labels))
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		canonical[n] = labels[n]
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[n]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String(), canonical, nil
}

// escapeLabelValue escapes per the Prometheus text exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// RegisterHealth installs (or replaces) a named health check evaluated by
// CheckHealth and the /healthz endpoint. A nil error means healthy.
func (r *Registry) RegisterHealth(name string, check func() error) {
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	if _, ok := r.health[name]; !ok {
		r.horder = append(r.horder, name)
	}
	r.health[name] = check
}

// HealthStatus is the outcome of one registered health check.
type HealthStatus struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// CheckHealth evaluates every registered check in registration order and
// reports whether all passed.
func (r *Registry) CheckHealth() (bool, []HealthStatus) {
	r.healthMu.Lock()
	names := append([]string(nil), r.horder...)
	checks := make([]func() error, len(names))
	for i, n := range names {
		checks[i] = r.health[n]
	}
	r.healthMu.Unlock()

	ok := true
	out := make([]HealthStatus, len(names))
	for i, n := range names {
		st := HealthStatus{Name: n, OK: true}
		if err := checks[i](); err != nil {
			st.OK = false
			st.Error = err.Error()
			ok = false
		}
		out[i] = st
	}
	return ok, out
}

// MetricSnapshot is one instrument's state, as rendered by Snapshot and
// the /statusz endpoint.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	// Value carries counters and gauges.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/Quantiles carry histograms.
	Count     int64              `json:"count,omitempty"`
	Sum       float64            `json:"sum,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// Snapshot returns every instrument's current state, sorted by name then
// label set.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []MetricSnapshot
	for _, f := range sortedFamilies(r.families) {
		for _, s := range sortedSeries(f.series) {
			snap := MetricSnapshot{Name: f.name, Labels: s.labels, Kind: f.kind.String()}
			switch f.kind {
			case kindCounter:
				snap.Value = s.ctr.Value()
			case kindGauge:
				snap.Value = s.gauge.Value()
			case kindHistogram:
				snap.Count = s.hist.Count()
				snap.Sum = s.hist.Sum()
				snap.Quantiles = map[string]float64{
					"p50": s.hist.Quantile(0.50),
					"p90": s.hist.Quantile(0.90),
					"p99": s.hist.Quantile(0.99),
				}
			}
			out = append(out, snap)
		}
	}
	return out
}

func sortedFamilies(m map[string]*family) []*family {
	out := make([]*family, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func sortedSeries(m map[string]*series) []*series {
	out := make([]*series, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
