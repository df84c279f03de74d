package threetier

import (
	"fmt"
	"math"

	"nnwc/internal/rng"
	"nnwc/internal/stats"
)

// Metrics are the measured outcomes of one simulation run.
type Metrics struct {
	Config Config

	// ResponseTimes holds the mean response time per class (seconds) over
	// transactions arriving in the measurement window.
	ResponseTimes [NumClasses]float64
	// Completed counts measured transactions that finished (including
	// past their deadline); Rejected counts measured transactions dropped
	// at a full pool queue; Censored counts measured transactions still
	// in flight when the drain limit expired.
	Completed [NumClasses]int
	Rejected  [NumClasses]int
	Censored  [NumClasses]int
	// EffectiveTPS is the paper's fifth indicator: transactions per
	// second completing within their class response-time constraint.
	EffectiveTPS float64
	// OfferedTPS is the measured arrival rate in the window.
	OfferedTPS float64
	// PoolUtilization is busy-thread-seconds / (threads × window) per pool.
	PoolUtilization [NumPools]float64
	// MeanQueueLen is the time-averaged wait-queue length per pool.
	MeanQueueLen [NumPools]float64
	// Samples holds each class's measured response times in completion
	// order; populated only when SystemParams.CollectSamples is set.
	Samples [NumClasses][]float64
	// MeanPoolWait and MeanPoolService break a class's mean response time
	// down by pool: time spent waiting for a thread of that pool and time
	// spent holding one (CPU + DB phases), per completed transaction.
	// Summing a class's row across pools recovers (approximately) its
	// mean response time — the residue is censoring. This is the
	// bottleneck-attribution view tuning decisions actually need.
	MeanPoolWait    [NumClasses][NumPools]float64
	MeanPoolService [NumClasses][NumPools]float64
}

// Bottleneck returns the pool where class c waits longest.
func (m *Metrics) Bottleneck(c Class) Pool {
	best := Pool(0)
	for p := 1; p < NumPools; p++ {
		if m.MeanPoolWait[c][p] > m.MeanPoolWait[c][best] {
			best = Pool(p)
		}
	}
	return best
}

// Percentiles summarizes one class's response-time distribution. It
// requires SystemParams.CollectSamples and at least one completion.
func (m *Metrics) Percentiles(c Class) (stats.Percentiles, error) {
	if len(m.Samples[c]) == 0 {
		return stats.Percentiles{}, fmt.Errorf("threetier: no samples for %v (CollectSamples off or no completions)", c)
	}
	return stats.SummarizePercentiles(m.Samples[c]), nil
}

// ResponseCI returns a ~95%% batch-means confidence interval for one
// class's mean response time. It requires SystemParams.CollectSamples.
func (m *Metrics) ResponseCI(c Class, batches int) (stats.ConfidenceInterval, error) {
	if len(m.Samples[c]) == 0 {
		return stats.ConfidenceInterval{}, fmt.Errorf("threetier: no samples for %v (CollectSamples off or no completions)", c)
	}
	return stats.BatchMeansCI(m.Samples[c], batches)
}

// Indicators returns the five performance indicators in the paper's order
// (four response times, then effective throughput). Response times are
// reported in milliseconds so that the magnitudes of all five outputs are
// comparable in reports.
func (m *Metrics) Indicators() []float64 {
	return []float64{
		m.ResponseTimes[Manufacturing] * 1000,
		m.ResponseTimes[DealerPurchase] * 1000,
		m.ResponseTimes[DealerManage] * 1000,
		m.ResponseTimes[DealerBrowse] * 1000,
		m.EffectiveTPS,
	}
}

// event kinds.
type eventKind int

const (
	evArrival eventKind = iota
	evCPUDone
	evStageDone
)

type event struct {
	time float64
	seq  int64 // FIFO tie-break for determinism
	kind eventKind
	req  *request
}

// before orders events by (time, seq).
func before(a, b *event) bool {
	//lint:waive floateq -- event heap needs an exact time tie-break for a deterministic total order
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (time, seq). push
// and pop make the same comparisons as container/heap's up and down, but
// sift a hole instead of swapping: each parent or child the sifted event
// passes moves into the hole, and the event is placed once where the sift
// stops. The slot every event ends in is the one container/heap's swaps
// leave it in, so the backing array matches container/heap's after every
// operation (censored walks it in array order). Being typed, the heap
// also avoids boxing each event in an interface.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !before(&e, &q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = e
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(&q[j2], &q[j]) {
			j = j2 // right child
		}
		if !before(&q[j], &x) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	*h = q[:n]
	return top
}

func (h eventHeap) peekTime() float64 { return h[0].time }

type request struct {
	class    Class
	arrival  float64
	stageIdx int
	measured bool

	queuedAt float64 // when the current stage was entered
	heldAt   float64 // when the current stage's thread was acquired
}

type pool struct {
	threads int
	busy    int
	queue   []*request
	head    int

	// accounting
	busyIntegral  float64
	queueIntegral float64
	lastUpdate    float64
}

func (p *pool) advance(now float64) {
	dt := now - p.lastUpdate
	p.busyIntegral += float64(p.busy) * dt
	p.queueIntegral += float64(p.qlen()) * dt
	p.lastUpdate = now
}

func (p *pool) qlen() int { return len(p.queue) - p.head }

func (p *pool) push(r *request) { p.queue = append(p.queue, r) }

func (p *pool) pop() *request {
	r := p.queue[p.head]
	p.queue[p.head] = nil
	p.head++
	if p.head > 1024 && p.head*2 > len(p.queue) {
		p.queue = append([]*request(nil), p.queue[p.head:]...)
		p.head = 0
	}
	return r
}

// Simulator runs the three-tier model for one configuration.
type Simulator struct {
	cfg      Config
	sys      SystemParams
	profiles [NumClasses]classProfile
	src      *rng.Source

	now    float64
	events eventHeap
	seq    int64
	// free holds finished requests for onArrival to reuse. A request is
	// finished once it completes or is rejected; by then no pending event
	// and no pool queue refers to it.
	free []*request

	pools         [NumPools]*pool
	busyCPU       int // requests currently in their CPU phase
	dbOutstanding int

	// stretch is the holding-time inflation caused by every configured
	// worker thread: context switches, cache pressure, and lock/connection
	// contention stretch both the CPU and the database phases. It is
	// constant per configuration.
	stretch float64

	// measurement accumulators
	rtSamples   [NumClasses][]float64
	waitSum     [NumClasses][NumPools]float64
	svcSum      [NumClasses][NumPools]float64
	rtSum       [NumClasses]float64
	completed   [NumClasses]int
	effective   [NumClasses]int
	rejected    [NumClasses]int
	arrivals    int
	inFlight    int
	windowStart float64
	windowEnd   float64
}

// NewSimulator builds a simulator for the given configuration, system
// parameters, and random source.
func NewSimulator(cfg Config, sys SystemParams, src *rng.Source) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sys.Cores < 1 {
		return nil, fmt.Errorf("threetier: need at least one core, got %d", sys.Cores)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:      cfg,
		sys:      sys,
		profiles: profiles(),
		src:      src,
	}
	for c := range s.profiles {
		if sys.Mix != nil {
			s.profiles[c].mix = sys.Mix[c]
		}
		for i := range s.profiles[c].stages {
			st := &s.profiles[c].stages[i]
			st.cpu = newLognormal(st.cpuMean, sys.CPUVariation)
			if st.dbMean > 0 { // stages without a database call never sample one
				st.db = newLognormal(st.dbMean, sys.DBVariation)
			}
		}
	}
	total := cfg.MfgThreads + cfg.WebThreads + cfg.DefaultThreads
	s.stretch = 1 + sys.ThreadOverhead*float64(total)
	s.pools[MfgPool] = &pool{threads: cfg.MfgThreads}
	s.pools[WebPool] = &pool{threads: cfg.WebThreads}
	s.pools[DefaultPool] = &pool{threads: cfg.DefaultThreads}
	s.windowStart = sys.WarmupTime
	s.windowEnd = sys.WarmupTime + sys.MeasureTime
	return s, nil
}

// Run executes the simulation: warm-up, measurement window, then a bounded
// drain so in-flight measured transactions can finish. It returns the
// collected metrics.
func (s *Simulator) Run() (*Metrics, error) {
	// Prime the arrival process: one Poisson stream in open loop, or one
	// staggered first submission per virtual user in closed loop.
	switch s.cfg.Mode {
	case OpenLoop:
		s.schedule(s.src.Exp(s.cfg.InjectionRate), evArrival, nil)
	case ClosedLoop:
		for u := 0; u < s.cfg.Users; u++ {
			s.schedule(s.src.Exp(1/s.cfg.ThinkTime), evArrival, nil)
		}
	}
	drainLimit := s.windowEnd + s.sys.MeasureTime*0.5

	for len(s.events) > 0 {
		if s.events.peekTime() > drainLimit {
			break
		}
		e := s.events.pop()
		s.advanceClocks(e.time)
		s.now = e.time
		switch e.kind {
		case evArrival:
			s.onArrival()
		case evCPUDone:
			s.onCPUDone(e.req)
		case evStageDone:
			s.onStageDone(e.req)
		}
	}

	return s.collect(drainLimit), nil
}

func (s *Simulator) advanceClocks(now float64) {
	for _, p := range s.pools {
		p.advance(now)
	}
}

func (s *Simulator) schedule(at float64, kind eventKind, r *request) {
	s.seq++
	s.events.push(event{time: at, seq: s.seq, kind: kind, req: r})
}

func (s *Simulator) onArrival() {
	// In open loop the stream self-perpetuates; in closed loop the next
	// submission is scheduled when this user's transaction finishes. Load
	// generation stops at the end of the measurement window either way.
	if s.cfg.Mode == OpenLoop && s.now < s.windowEnd {
		s.schedule(s.now+s.src.Exp(s.cfg.InjectionRate), evArrival, nil)
	}
	if s.cfg.Mode == ClosedLoop && s.now >= s.windowEnd {
		return // the user retires instead of submitting
	}
	r := s.newRequest()
	r.class, r.arrival = s.sampleClass(), s.now
	if s.now >= s.windowStart && s.now < s.windowEnd {
		r.measured = true
		s.arrivals++
	}
	s.inFlight++
	s.enqueue(r)
}

// newRequest returns a zeroed request, reusing a finished one if any.
func (s *Simulator) newRequest() *request {
	n := len(s.free)
	if n == 0 {
		return &request{}
	}
	r := s.free[n-1]
	s.free = s.free[:n-1]
	*r = request{}
	return r
}

func (s *Simulator) sampleClass() Class {
	u := s.src.Float64()
	var acc float64
	for c := 0; c < NumClasses; c++ {
		acc += s.profiles[c].mix
		if u < acc {
			return Class(c)
		}
	}
	return Class(NumClasses - 1)
}

// enqueue places r at its current stage's pool, starting service
// immediately when a thread is free. A full wait queue rejects the
// transaction outright (admission control), which both matches production
// application servers and keeps saturated configurations' indicators
// finite.
func (s *Simulator) enqueue(r *request) {
	r.queuedAt = s.now
	st := s.profiles[r.class].stages[r.stageIdx]
	p := s.pools[st.pool]
	switch {
	case p.busy < p.threads:
		p.busy++
		s.startCPU(r)
	case s.sys.QueueCap > 0 && p.qlen() >= s.sys.QueueCap:
		s.inFlight--
		if r.measured {
			s.rejected[r.class]++
		}
		s.free = append(s.free, r)
		s.userDone()
	default:
		p.push(r)
	}
}

// startCPU samples the CPU-phase duration under the current contention and
// schedules its completion. The thread is already held.
func (s *Simulator) startCPU(r *request) {
	r.heldAt = s.now
	st := &s.profiles[r.class].stages[r.stageIdx]
	if r.measured {
		s.waitSum[r.class][st.pool] += s.now - r.queuedAt
	}
	s.busyCPU++
	base := st.cpu.draw(s.src)
	slow := s.cpuSlowdown()
	s.schedule(s.now+base*slow, evCPUDone, r)
}

// cpuSlowdown models processor sharing across cores plus the per-thread
// management overhead of large pools.
func (s *Simulator) cpuSlowdown() float64 {
	contention := 1.0
	if s.busyCPU > s.sys.Cores {
		contention = float64(s.busyCPU) / float64(s.sys.Cores)
	}
	return contention * s.stretch
}

func (s *Simulator) onCPUDone(r *request) {
	s.busyCPU--
	st := &s.profiles[r.class].stages[r.stageIdx]
	if st.dbMean <= 0 {
		s.onStageDone(r)
		return
	}
	// Database call made while holding the worker thread.
	stretch := s.stretch
	if s.dbOutstanding > s.sys.DBSoftLimit {
		stretch += s.sys.DBSlowdown * float64(s.dbOutstanding-s.sys.DBSoftLimit)
	}
	s.dbOutstanding++
	d := st.db.draw(s.src) * stretch
	s.schedule(s.now+d, evStageDone, r)
}

func (s *Simulator) onStageDone(r *request) {
	st := &s.profiles[r.class].stages[r.stageIdx]
	if st.dbMean > 0 {
		s.dbOutstanding--
	}
	if r.measured {
		s.svcSum[r.class][st.pool] += s.now - r.heldAt
	}
	// Release the worker thread; hand it to the next waiter if any.
	p := s.pools[st.pool]
	if p.qlen() > 0 {
		next := p.pop()
		s.startCPU(next)
	} else {
		p.busy--
	}

	r.stageIdx++
	if r.stageIdx < len(s.profiles[r.class].stages) {
		s.enqueue(r)
		return
	}
	// Transaction complete.
	s.inFlight--
	if r.measured {
		rt := s.now - r.arrival
		s.rtSum[r.class] += rt
		s.completed[r.class]++
		if s.sys.CollectSamples {
			s.rtSamples[r.class] = append(s.rtSamples[r.class], rt)
		}
		if rt <= s.profiles[r.class].deadline {
			s.effective[r.class]++
		}
	}
	s.free = append(s.free, r)
	s.userDone()
}

// userDone returns a closed-loop virtual user to its think state after its
// transaction completes (or is rejected). No-op in open loop.
func (s *Simulator) userDone() {
	if s.cfg.Mode != ClosedLoop {
		return
	}
	s.schedule(s.now+s.src.Exp(1/s.cfg.ThinkTime), evArrival, nil)
}

// lognormal is a service-time distribution with a given mean: lognormal
// with parameters (mu, sigma) when it varies, the constant mean when not.
type lognormal struct {
	mean, mu, sigma float64
	varies          bool
}

// newLognormal returns the lognormal with the given mean and coefficient
// of variation; cv <= 0 gives the constant mean.
func newLognormal(mean, cv float64) lognormal {
	if cv <= 0 {
		return lognormal{mean: mean}
	}
	sigma2 := math.Log(1 + cv*cv)
	return lognormal{mean: mean, mu: math.Log(mean) - sigma2/2, sigma: math.Sqrt(sigma2), varies: true}
}

// draw samples a service time; the constant distribution draws nothing.
func (d lognormal) draw(src *rng.Source) float64 {
	if !d.varies {
		return d.mean
	}
	return src.LogNormal(d.mu, d.sigma)
}

func (s *Simulator) collect(drainEnd float64) *Metrics {
	m := &Metrics{Config: s.cfg}
	var effTotal int
	censored := s.censored(drainEnd)
	for c := 0; c < NumClasses; c++ {
		n := s.completed[c]
		sum := s.rtSum[c]
		// Requests still in flight after the drain are censored at the
		// drain horizon: they contribute a lower-bound response time and
		// never count as effective. This keeps saturated configurations
		// finite while preserving their "bad" signal.
		cens := censored[c]
		n += cens.count
		sum += cens.rtSum
		m.Censored[c] = cens.count
		m.Completed[c] = s.completed[c]
		m.Rejected[c] = s.rejected[c]
		if n > 0 {
			m.ResponseTimes[c] = sum / float64(n)
		}
		effTotal += s.effective[c]
	}
	if s.sys.CollectSamples {
		m.Samples = s.rtSamples
	}
	for c := 0; c < NumClasses; c++ {
		if s.completed[c] == 0 {
			continue
		}
		n := float64(s.completed[c])
		for p := 0; p < NumPools; p++ {
			m.MeanPoolWait[c][p] = s.waitSum[c][p] / n
			m.MeanPoolService[c][p] = s.svcSum[c][p] / n
		}
	}
	m.EffectiveTPS = float64(effTotal) / s.sys.MeasureTime
	m.OfferedTPS = float64(s.arrivals) / s.sys.MeasureTime
	window := drainEnd
	for i, p := range s.pools {
		p.advance(drainEnd)
		m.PoolUtilization[i] = p.busyIntegral / (float64(p.threads) * window)
		m.MeanQueueLen[i] = p.queueIntegral / window
	}
	return m
}

type censoredStats struct {
	count int
	rtSum float64
}

// censored walks the remaining events, then the pool queues, for measured
// requests that never completed, accumulating each class in that order. A
// live request is referenced by exactly one pending event (CPU or DB
// phase) or one pool queue slot (waiting for a thread), never both, so
// each is counted once.
func (s *Simulator) censored(horizon float64) [NumClasses]censoredStats {
	var out [NumClasses]censoredStats
	add := func(r *request) {
		if r == nil || !r.measured {
			return
		}
		out[r.class].count++
		out[r.class].rtSum += horizon - r.arrival
	}
	for _, e := range s.events {
		add(e.req)
	}
	for _, p := range s.pools {
		for i := p.head; i < len(p.queue); i++ {
			add(p.queue[i])
		}
	}
	return out
}

// Run is a convenience wrapper: build a simulator and run it.
func Run(cfg Config, sys SystemParams, seed uint64) (*Metrics, error) {
	sim, err := NewSimulator(cfg, sys, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
