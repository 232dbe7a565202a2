package fixture

type registry struct{}

func (registry) Counter(name string) *int                     { return nil }
func (registry) Gauge(name string) *int                       { return nil }
func (registry) GaugeFunc(name string, f func() float64)      {}
func (registry) RegisterHistogram(name string, h interface{}) {}

type observer struct {
	Tracer  *int
	Metrics *int
	Spans   *int
}

func (o *observer) Reg() *int     { return nil }
func (o *observer) Emit(e int)    {}
func (o *observer) SpanRec() *int { return nil }

type config struct {
	Obs *observer
}

func register(reg registry, labels string, f func() float64) {
	reg.Counter("lease_good_total")
	reg.Counter("cache_bad_total") // want `lacks the lease_ prefix`
	reg.GaugeFunc("lease_dup_gauge", f)
	reg.GaugeFunc("lease_dup_gauge", f) // want `duplicate GaugeFunc registration`
	// Concatenated names get per-instance labels, so repeating the literal
	// prefix is legitimate; only the prefix is checked.
	reg.GaugeFunc("lease_labeled_gauge"+labels, f)
	reg.GaugeFunc("lease_labeled_gauge"+labels, f)
	reg.GaugeFunc("proxy_labeled_gauge"+labels, f) // want `lacks the lease_ prefix`
}

func observerAccess(cfg config, e int) {
	cfg.Obs.Emit(e) // nil-safe wrapper: fine
	reg := cfg.Obs.Reg()
	_ = reg
	_ = cfg.Obs.Metrics // want `use the nil-safe wrapper Reg`
	_ = cfg.Obs.Spans   // want `use the nil-safe wrapper SpanRec`
}
