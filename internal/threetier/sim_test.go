package threetier

import (
	"math"
	"testing"

	"nnwc/internal/queueing"
)

// testParams returns fast simulation windows for unit tests.
func testParams() SystemParams {
	sys := DefaultSystemParams()
	sys.WarmupTime = 3
	sys.MeasureTime = 15
	return sys
}

func TestConfigValidate(t *testing.T) {
	ok := Config{InjectionRate: 100, MfgThreads: 1, WebThreads: 1, DefaultThreads: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{InjectionRate: 0, MfgThreads: 1, WebThreads: 1, DefaultThreads: 1},
		{InjectionRate: 100, MfgThreads: 0, WebThreads: 1, DefaultThreads: 1},
		{InjectionRate: 100, MfgThreads: 1, WebThreads: 0, DefaultThreads: 1},
		{InjectionRate: 100, MfgThreads: 1, WebThreads: 1, DefaultThreads: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigVectorRoundTrip(t *testing.T) {
	c := Config{InjectionRate: 560, DefaultThreads: 7, MfgThreads: 16, WebThreads: 18}
	v := c.Vector()
	// Paper ordering: (injection rate, default, mfg, web).
	if v[0] != 560 || v[1] != 7 || v[2] != 16 || v[3] != 18 {
		t.Fatalf("vector %v", v)
	}
	back, err := ConfigFromVector(v)
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip %+v != %+v", back, c)
	}
	if _, err := ConfigFromVector([]float64{1, 2}); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestClassAndPoolStrings(t *testing.T) {
	names := map[string]bool{}
	for c := 0; c < NumClasses; c++ {
		n := Class(c).String()
		if n == "" || names[n] {
			t.Fatalf("class name %q empty or duplicate", n)
		}
		names[n] = true
	}
	for p := 0; p < NumPools; p++ {
		n := Pool(p).String()
		if n == "" || names[n] {
			t.Fatalf("pool name %q empty or duplicate", n)
		}
		names[n] = true
	}
	if Class(99).String() == "" || Pool(99).String() == "" {
		t.Fatal("unknown ids should still render")
	}
}

func TestProfilesMixSumsToOne(t *testing.T) {
	var sum float64
	for _, p := range profiles() {
		sum += p.mix
		if len(p.stages) == 0 {
			t.Fatal("class with no stages")
		}
		if p.deadline <= 0 {
			t.Fatal("class without deadline")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mix sums to %v", sum)
	}
}

func TestSchemaNames(t *testing.T) {
	if len(FeatureNames()) != 4 || len(IndicatorNames()) != 5 {
		t.Fatal("schema sizes wrong")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	a, err := Run(cfg, testParams(), 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, testParams(), 123)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ResponseTimes {
		if a.ResponseTimes[i] != b.ResponseTimes[i] {
			t.Fatal("same seed produced different response times")
		}
	}
	if a.EffectiveTPS != b.EffectiveTPS {
		t.Fatal("same seed produced different throughput")
	}
	c, err := Run(cfg, testParams(), 124)
	if err != nil {
		t.Fatal(err)
	}
	if a.ResponseTimes[0] == c.ResponseTimes[0] {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestOfferedRateMatchesInjectionRate(t *testing.T) {
	cfg := Config{InjectionRate: 500, MfgThreads: 16, WebThreads: 20, DefaultThreads: 10}
	m, err := Run(cfg, testParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.OfferedTPS-500)/500 > 0.05 {
		t.Fatalf("offered %v, want ~500", m.OfferedTPS)
	}
}

func TestLowLoadResponseApproxServiceTime(t *testing.T) {
	// At very low load, queueing is negligible and the response time is
	// roughly the sum of service demands times the thread-overhead
	// stretch.
	cfg := Config{InjectionRate: 20, MfgThreads: 8, WebThreads: 8, DefaultThreads: 8}
	sys := testParams()
	m, err := Run(cfg, sys, 6)
	if err != nil {
		t.Fatal(err)
	}
	stretch := 1 + sys.ThreadOverhead*24
	for c, prof := range profiles() {
		var base float64
		for _, st := range prof.stages {
			base += st.cpuMean + st.dbMean
		}
		want := base * stretch
		got := m.ResponseTimes[c]
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%v: low-load RT %v, want ~%v", Class(c), got, want)
		}
	}
}

func TestStarvedPoolRaisesResponseTime(t *testing.T) {
	sys := testParams()
	rich := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 20, DefaultThreads: 8}
	starved := rich
	starved.WebThreads = 6
	a, err := Run(rich, sys, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(starved, sys, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.ResponseTimes[DealerPurchase] < 2*a.ResponseTimes[DealerPurchase] {
		t.Fatalf("starving the web pool barely changed purchase RT: %v vs %v",
			b.ResponseTimes[DealerPurchase], a.ResponseTimes[DealerPurchase])
	}
	if b.EffectiveTPS > a.EffectiveTPS {
		t.Fatal("starved pool should not increase effective throughput")
	}
}

func TestDefaultQueueIrrelevantToManufacturingShape(t *testing.T) {
	// The paper's Figure 4 (parallel slopes): at an adequate web pool, the
	// default queue has little effect on manufacturing response time
	// compared to its effect on dealer purchase.
	sys := testParams()
	base := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	low := base
	low.DefaultThreads = 2
	a, err := Run(base, sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(low, sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	mfgChange := math.Abs(b.ResponseTimes[Manufacturing]-a.ResponseTimes[Manufacturing]) /
		a.ResponseTimes[Manufacturing]
	purChange := math.Abs(b.ResponseTimes[DealerPurchase]-a.ResponseTimes[DealerPurchase]) /
		a.ResponseTimes[DealerPurchase]
	if purChange < 5*mfgChange {
		t.Fatalf("default-queue starvation: purchase moved %.1f%%, mfg %.1f%% — expected purchase >> mfg",
			purChange*100, mfgChange*100)
	}
}

func TestOverProvisioningHurtsThroughput(t *testing.T) {
	// The paper's Figure 8 (hills): giant pools must cost throughput.
	sys := testParams()
	tuned := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 20, DefaultThreads: 8}
	bloated := Config{InjectionRate: 560, MfgThreads: 64, WebThreads: 64, DefaultThreads: 64}
	a, err := Run(tuned, sys, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(bloated, sys, 9)
	if err != nil {
		t.Fatal(err)
	}
	if b.EffectiveTPS > 0.8*a.EffectiveTPS {
		t.Fatalf("bloated pools kept throughput: %v vs tuned %v", b.EffectiveTPS, a.EffectiveTPS)
	}
}

func TestRejectionAccounting(t *testing.T) {
	// Under heavy starvation, rejections must appear and the effective
	// throughput must fall well below the offered rate.
	cfg := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 2, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var rejected int
	for c := 0; c < NumClasses; c++ {
		rejected += m.Rejected[c]
	}
	if rejected == 0 {
		t.Fatal("no rejections under extreme starvation")
	}
	if m.EffectiveTPS > m.OfferedTPS/2 {
		t.Fatalf("effective %v should be far below offered %v", m.EffectiveTPS, m.OfferedTPS)
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for p, u := range m.PoolUtilization {
		if u < 0 || u > 1.0001 {
			t.Fatalf("pool %v utilization %v", Pool(p), u)
		}
	}
	for p, q := range m.MeanQueueLen {
		if q < 0 {
			t.Fatalf("pool %v mean queue length %v", Pool(p), q)
		}
	}
}

func TestIndicatorsVector(t *testing.T) {
	cfg := Config{InjectionRate: 300, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 12)
	if err != nil {
		t.Fatal(err)
	}
	ind := m.Indicators()
	if len(ind) != 5 {
		t.Fatalf("%d indicators", len(ind))
	}
	// Milliseconds conversion.
	if math.Abs(ind[0]-m.ResponseTimes[Manufacturing]*1000) > 1e-9 {
		t.Fatal("indicator 0 is not ms of manufacturing RT")
	}
	if ind[4] != m.EffectiveTPS {
		t.Fatal("indicator 4 is not effective TPS")
	}
}

// TestSimulatorMatchesAnalyticSingleStage cross-validates the DES against
// the M/M/c oracle: a lightly loaded pool where CPU time dominates and
// contention is negligible behaves like an M/M/c queue with service rate
// 1/(cpu+db).
func TestSimulatorMatchesAnalyticMM_C(t *testing.T) {
	// Use browse-dominated load at low rate: almost all time is the web
	// stage. We compare the simulator's browse RT against the M/M/c
	// response time of the web pool plus its default-stage time, within a
	// generous tolerance (the simulator has lognormal service, not
	// exponential, and a second stage).
	sys := testParams()
	sys.ThreadOverhead = 0 // isolate pure queueing
	sys.CPUVariation = 1.0 // CV=1 matches the exponential assumption
	sys.DBVariation = 1.0
	sys.MeasureTime = 60

	cfg := Config{InjectionRate: 200, MfgThreads: 32, WebThreads: 6, DefaultThreads: 32}
	m, err := Run(cfg, sys, 13)
	if err != nil {
		t.Fatal(err)
	}

	// Offered load at the web pool: every class's first stage.
	profs := profiles()
	var webHold, webRate float64
	for _, p := range profs {
		st := p.stages[0]
		if st.pool == WebPool {
			webHold += p.mix * (st.cpuMean + st.dbMean)
			webRate += p.mix * cfg.InjectionRate
		}
	}
	meanService := webHold / (webRate / cfg.InjectionRate) // E[S] per web visit
	q := queueing.MMC{Lambda: webRate, Mu: 1 / meanService, C: cfg.WebThreads}
	wq, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}

	// Browse = web wait + web service + default stage (uncongested).
	browse := profs[DealerBrowse]
	want := wq + browse.stages[0].cpuMean + browse.stages[0].dbMean +
		browse.stages[1].cpuMean + browse.stages[1].dbMean
	got := m.ResponseTimes[DealerBrowse]
	if math.Abs(got-want)/want > 0.30 {
		t.Fatalf("DES browse RT %v, analytic ≈ %v (>30%% apart)", got, want)
	}
}

// benchSimulation is the configuration BenchmarkSimulation runs and
// TestSimulatorAllocs budgets.
func benchSimulation() (Config, SystemParams) {
	sys := DefaultSystemParams()
	sys.WarmupTime, sys.MeasureTime = 2, 8
	return Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}, sys
}

func BenchmarkSimulation(b *testing.B) {
	cfg, sys := benchSimulation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, sys, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimulatorAllocs holds one run to a fixed allocation budget: the
// simulator's slices grow to their peak and recycled requests are reused,
// so per-event allocation (boxing events through an interface, a new
// request per arrival) would blow it by two orders of magnitude.
func TestSimulatorAllocs(t *testing.T) {
	cfg, sys := benchSimulation()
	seed := uint64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		if _, err := Run(cfg, sys, seed); err != nil {
			panic(err)
		}
	})
	if allocs > 300 {
		t.Fatalf("one simulation run allocates %v objects, want <= 300", allocs)
	}
}

// TestRejectionMatchesMMCKBlocking validates the simulator's admission
// control against the M/M/c/K oracle: with every transaction's first stage
// on a starved web pool (and the other pools effectively unbounded), the
// measured rejection fraction must match the analytic blocking
// probability of an M/M/c/K system with the pool's aggregate service rate.
func TestRejectionMatchesMMCKBlocking(t *testing.T) {
	sys := testParams()
	sys.ThreadOverhead = 0
	sys.CPUVariation = 1
	sys.DBVariation = 1
	sys.MeasureTime = 60

	cfg := Config{InjectionRate: 560, MfgThreads: 64, WebThreads: 6, DefaultThreads: 64}
	m, err := Run(cfg, sys, 99)
	if err != nil {
		t.Fatal(err)
	}

	// Aggregate mean holding time of the web pool's first-stage visits.
	profs := profiles()
	var hold float64
	for _, p := range profs {
		st := p.stages[0]
		if st.pool != WebPool {
			t.Fatal("test assumes all classes enter through the web pool")
		}
		hold += p.mix * (st.cpuMean + st.dbMean)
	}
	oracle := queueing.MMCK{
		Lambda: cfg.InjectionRate,
		Mu:     1 / hold,
		C:      cfg.WebThreads,
		K:      cfg.WebThreads + sys.QueueCap,
	}
	wantBlock, err := oracle.BlockingProbability()
	if err != nil {
		t.Fatal(err)
	}

	var rejected int
	for c := 0; c < NumClasses; c++ {
		rejected += m.Rejected[c]
	}
	measured := float64(rejected) / (m.OfferedTPS * sys.MeasureTime)
	if math.Abs(measured-wantBlock)/wantBlock > 0.12 {
		t.Fatalf("rejection fraction %.3f, M/M/c/K blocking %.3f (>12%% apart)", measured, wantBlock)
	}
	// Accepted throughput cannot exceed the pool's service capacity.
	accepted := m.OfferedTPS * (1 - measured)
	capacity := float64(cfg.WebThreads) / hold
	if accepted > capacity*1.05 {
		t.Fatalf("accepted rate %v exceeds web capacity %v", accepted, capacity)
	}
}

func TestSampleCollectionAndPercentiles(t *testing.T) {
	sys := testParams()
	sys.CollectSamples = true
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	m, err := Run(cfg, sys, 31)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		if len(m.Samples[c]) != m.Completed[c] {
			t.Fatalf("%v: %d samples vs %d completions", Class(c), len(m.Samples[c]), m.Completed[c])
		}
		p, err := m.Percentiles(Class(c))
		if err != nil {
			t.Fatal(err)
		}
		if !(p.P50 <= p.P95 && p.P95 <= p.P99) {
			t.Fatalf("%v percentiles out of order: %+v", Class(c), p)
		}
		// The median of a right-skewed queueing distribution sits below
		// the mean; allow equality tolerance.
		if p.P50 > m.ResponseTimes[c]*1.2 {
			t.Fatalf("%v: P50 %v far above mean %v", Class(c), p.P50, m.ResponseTimes[c])
		}
		ci, err := m.ResponseCI(Class(c), 20)
		if err != nil {
			t.Fatal(err)
		}
		if !ci.Contains(m.ResponseTimes[c]) {
			// The CI is over completions only while the mean includes
			// censored transactions; at this load they coincide.
			t.Fatalf("%v: CI %v±%v misses the mean %v", Class(c), ci.Mean, ci.HalfWidth, m.ResponseTimes[c])
		}
	}
}

func TestSamplesOffByDefault(t *testing.T) {
	cfg := Config{InjectionRate: 300, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 32)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		if m.Samples[c] != nil {
			t.Fatal("samples collected without CollectSamples")
		}
	}
	if _, err := m.Percentiles(Manufacturing); err == nil {
		t.Fatal("Percentiles should fail without samples")
	}
	if _, err := m.ResponseCI(Manufacturing, 10); err == nil {
		t.Fatal("ResponseCI should fail without samples")
	}
}

// TestReplicateMeansWithinCI: independent-seed replications of the same
// configuration should mostly fall inside one run's batch-means CI —
// evidence the CI is calibrated for the simulator's autocorrelation.
func TestReplicateMeansWithinCI(t *testing.T) {
	sys := testParams()
	sys.CollectSamples = true
	sys.MeasureTime = 40
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 20, DefaultThreads: 10}
	base, err := Run(cfg, sys, 33)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := base.ResponseCI(DealerBrowse, 20)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const reps = 10
	for r := 0; r < reps; r++ {
		m, err := Run(cfg, sys, 100+uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(m.ResponseTimes[DealerBrowse]) {
			hits++
		}
	}
	if hits < reps/2 {
		t.Fatalf("only %d/%d replicate means fell inside the CI (%v±%v)", hits, reps, ci.Mean, ci.HalfWidth)
	}
}

func TestBreakdownSumsToResponseTime(t *testing.T) {
	cfg := Config{InjectionRate: 450, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 41)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		var sum float64
		for p := 0; p < NumPools; p++ {
			if m.MeanPoolWait[c][p] < 0 || m.MeanPoolService[c][p] < 0 {
				t.Fatalf("%v/%v: negative breakdown", Class(c), Pool(p))
			}
			sum += m.MeanPoolWait[c][p] + m.MeanPoolService[c][p]
		}
		// Censored transactions contribute to ResponseTimes but not the
		// breakdown, so allow a modest residue.
		if math.Abs(sum-m.ResponseTimes[c])/m.ResponseTimes[c] > 0.10 {
			t.Fatalf("%v: breakdown %v vs response time %v", Class(c), sum, m.ResponseTimes[c])
		}
	}
}

func TestBreakdownLocatesBottleneck(t *testing.T) {
	// Starve the web pool: every class's dominant wait must be there.
	cfg := Config{InjectionRate: 560, MfgThreads: 32, WebThreads: 8, DefaultThreads: 32}
	m, err := Run(cfg, testParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		if m.Completed[c] == 0 {
			continue
		}
		if got := m.Bottleneck(Class(c)); got != WebPool {
			t.Fatalf("%v: bottleneck %v, want web (waits: %v)", Class(c), got, m.MeanPoolWait[c])
		}
	}
	// Flip it: starve default; dealer classes must move there, while
	// manufacturing (whose default-pool use is nil) must not.
	cfg2 := Config{InjectionRate: 560, MfgThreads: 32, WebThreads: 32, DefaultThreads: 3}
	m2, err := Run(cfg2, testParams(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Bottleneck(DealerPurchase); got != DefaultPool {
		t.Fatalf("purchase bottleneck %v, want default (waits: %v)", got, m2.MeanPoolWait[DealerPurchase])
	}
	if got := m2.Bottleneck(Manufacturing); got == DefaultPool {
		t.Fatal("manufacturing should not bottleneck on the default pool")
	}
}

func TestBreakdownServiceMatchesDemandAtLowLoad(t *testing.T) {
	cfg := Config{InjectionRate: 20, MfgThreads: 16, WebThreads: 16, DefaultThreads: 16}
	sys := testParams()
	m, err := Run(cfg, sys, 44)
	if err != nil {
		t.Fatal(err)
	}
	stretch := 1 + sys.ThreadOverhead*48
	for c, prof := range profiles() {
		perPool := map[Pool]float64{}
		for _, st := range prof.stages {
			perPool[st.pool] += (st.cpuMean + st.dbMean) * stretch
		}
		for p := 0; p < NumPools; p++ {
			want := perPool[Pool(p)]
			got := m.MeanPoolService[c][p]
			if want == 0 {
				if got != 0 {
					t.Fatalf("%v/%v: unexpected service time %v", Class(c), Pool(p), got)
				}
				continue
			}
			if math.Abs(got-want)/want > 0.20 {
				t.Fatalf("%v/%v: service %v, want ~%v", Class(c), Pool(p), got, want)
			}
		}
	}
}

func TestMixOverride(t *testing.T) {
	sys := testParams()
	sys.Mix = []float64{1, 0, 0, 0} // manufacturing only
	cfg := Config{InjectionRate: 300, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, sys, 51)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed[Manufacturing] == 0 {
		t.Fatal("no manufacturing completions with an all-mfg mix")
	}
	for _, c := range []Class{DealerPurchase, DealerManage, DealerBrowse} {
		if m.Completed[c] != 0 || m.Rejected[c] != 0 {
			t.Fatalf("%v transactions appeared despite zero share", c)
		}
	}
}

func TestMixValidation(t *testing.T) {
	bad := [][]float64{
		{0.5, 0.5},            // wrong length
		{0.5, 0.5, 0.5, 0.5},  // sums to 2
		{-0.1, 0.4, 0.4, 0.3}, // negative
	}
	cfg := Config{InjectionRate: 100, MfgThreads: 4, WebThreads: 4, DefaultThreads: 4}
	for i, mix := range bad {
		sys := testParams()
		sys.Mix = mix
		if _, err := Run(cfg, sys, 1); err == nil {
			t.Errorf("bad mix %d accepted", i)
		}
	}
	// A valid explicit mix equal to the defaults behaves.
	sys := testParams()
	sys.Mix = []float64{0.25, 0.25, 0.20, 0.30}
	if _, err := Run(cfg, sys, 1); err != nil {
		t.Fatal(err)
	}
}
