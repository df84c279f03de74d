// Package threetier is a discrete-event simulator of the paper's case-study
// system (§4): a 3-tier web service in which a driver injects transactions
// at a configurable rate into a middle-tier application server that runs
// three thread pools — an mfg queue for the manufacturing domain, a web
// queue for the web front end, and a default queue for the rest — backed by
// a database tier. The driver and the database are not CPU-bound; the
// middle tier is the system under study.
//
// The simulator replaces the proprietary commercial workload whose data the
// paper used (see DESIGN.md, substitutions): it emits exactly the paper's
// 4-input (mfg/web/default thread counts + injection rate) to 5-output
// (manufacturing, dealer-purchase, dealer-manage, dealer-browse response
// times + effective throughput) samples, and reproduces the qualitative
// phenomena the model has to learn — response-time blow-ups near pool
// saturation, interior throughput maxima from CPU contention and
// per-thread overhead, and configuration parameters that are irrelevant in
// parts of the space.
package threetier

import (
	"errors"
	"fmt"
)

// Class enumerates the four transaction types of the workload, matching the
// paper's four response-time-constrained interactions.
type Class int

const (
	// Manufacturing models the manufacturing domain transactions served by
	// the mfg queue.
	Manufacturing Class = iota
	// DealerPurchase models dealer purchase transactions (web front end +
	// default queue + database writes).
	DealerPurchase
	// DealerManage models dealer management transactions.
	DealerManage
	// DealerBrowse models read-mostly dealer browse-autos transactions.
	DealerBrowse

	// NumClasses is the number of transaction classes.
	NumClasses = 4
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Manufacturing:
		return "manufacturing"
	case DealerPurchase:
		return "dealer-purchase"
	case DealerManage:
		return "dealer-manage"
	case DealerBrowse:
		return "dealer-browse"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Pool identifies one of the middle tier's thread pools.
type Pool int

const (
	// MfgPool is the manufacturing-domain queue.
	MfgPool Pool = iota
	// WebPool is the web front-end queue.
	WebPool
	// DefaultPool handles everything else.
	DefaultPool

	// NumPools is the number of thread pools.
	NumPools = 3
)

// String implements fmt.Stringer.
func (p Pool) String() string {
	switch p {
	case MfgPool:
		return "mfg"
	case WebPool:
		return "web"
	case DefaultPool:
		return "default"
	}
	return fmt.Sprintf("Pool(%d)", int(p))
}

// DriverMode selects how the load driver generates transactions.
type DriverMode int

const (
	// OpenLoop is the paper's driver: Poisson arrivals at InjectionRate,
	// independent of the system's state.
	OpenLoop DriverMode = iota
	// ClosedLoop models a fixed population of Users, each cycling
	// think → submit → wait-for-response. Arrival pressure then adapts to
	// the system's speed, as in SPECjAppServer-style harnesses; the
	// interactive response-time law X = N/(Z+R) governs its throughput.
	ClosedLoop
)

// String implements fmt.Stringer.
func (m DriverMode) String() string {
	switch m {
	case OpenLoop:
		return "open"
	case ClosedLoop:
		return "closed"
	}
	return fmt.Sprintf("DriverMode(%d)", int(m))
}

// Config is the controllable configuration — the paper's input vector
// X = (injection rate, default queue, mfg queue, web queue). The optional
// closed-loop fields extend the simulator beyond the paper's open driver.
type Config struct {
	InjectionRate  float64 // transactions per second offered by the driver (open loop)
	MfgThreads     int
	WebThreads     int
	DefaultThreads int

	// Mode defaults to OpenLoop. In ClosedLoop, Users and ThinkTime
	// replace InjectionRate as the load specification.
	Mode      DriverMode
	Users     int     // closed-loop population size
	ThinkTime float64 // mean exponential think time in seconds
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch c.Mode {
	case OpenLoop:
		if c.InjectionRate <= 0 {
			return errors.New("threetier: injection rate must be positive")
		}
	case ClosedLoop:
		if c.Users < 1 {
			return errors.New("threetier: closed loop needs at least one user")
		}
		if c.ThinkTime <= 0 {
			return errors.New("threetier: closed loop needs a positive think time")
		}
	default:
		return fmt.Errorf("threetier: unknown driver mode %v", c.Mode)
	}
	if c.MfgThreads < 1 || c.WebThreads < 1 || c.DefaultThreads < 1 {
		return errors.New("threetier: every thread pool needs at least one thread")
	}
	return nil
}

// Vector returns the configuration as the paper's 4-tuple ordering
// (injection rate, default queue, mfg queue, web queue), the order used in
// the figure captions "(560, x, 16, y)".
func (c Config) Vector() []float64 {
	return []float64{c.InjectionRate, float64(c.DefaultThreads), float64(c.MfgThreads), float64(c.WebThreads)}
}

// ConfigFromVector is the inverse of Config.Vector.
func ConfigFromVector(v []float64) (Config, error) {
	if len(v) != 4 {
		return Config{}, fmt.Errorf("threetier: config vector needs 4 entries, got %d", len(v))
	}
	return Config{
		InjectionRate:  v[0],
		DefaultThreads: int(v[1] + 0.5),
		MfgThreads:     int(v[2] + 0.5),
		WebThreads:     int(v[3] + 0.5),
	}, nil
}

// stage is one visit a transaction pays to a thread pool: some CPU work
// followed by a database call made while still holding the worker thread,
// as mid-2000s application servers did.
type stage struct {
	pool    Pool
	cpuMean float64 // seconds of CPU demand at nominal speed
	dbMean  float64 // seconds of database time while holding the thread

	// cpu and db are the two phases' service-time distributions. The
	// profile table leaves them zero; NewSimulator fills in its own copy
	// from the means and SystemParams' variations.
	cpu, db lognormal
}

// classProfile describes one transaction class: its share of the mix, its
// pipeline of pool visits, and its response-time constraint (deadline) used
// for the "effective transactions per second" indicator.
type classProfile struct {
	mix      float64
	stages   []stage
	deadline float64 // seconds
}

// SystemParams captures the simulated hardware and software environment.
// Defaults mirror the paper's Table 1 testbed: 4 dual-core Xeons with
// Hyper-Threading, i.e. 16 logical processors, and a database that is not
// CPU-bound but slows gently under very high concurrency.
type SystemParams struct {
	Cores int // logical processors executing middle-tier CPU work

	// ThreadOverhead is the fractional slowdown contributed by each
	// configured worker thread (context switching, cache pressure, lock
	// and connection contention). It stretches the whole holding time —
	// CPU and database phases — by 1 + ThreadOverhead·ΣThreads. This is
	// what makes over-provisioned pools hurt (the paper's hills).
	ThreadOverhead float64

	// QueueCap bounds each pool's wait queue, as production application
	// servers do. Arrivals that find the queue full are rejected and the
	// transaction aborts; it counts as offered but never as effective.
	QueueCap int

	// CPUVariation and DBVariation are coefficient-of-variation knobs for
	// the sampled service times (lognormal-like spread via gamma of the
	// exponential base).
	CPUVariation float64
	DBVariation  float64

	// DBSoftLimit is the outstanding-call count beyond which database
	// latency begins to stretch linearly; DBSlowdown is the stretch per
	// excess call.
	DBSoftLimit int
	DBSlowdown  float64

	// WarmupTime and MeasureTime bound the simulated interval: statistics
	// are collected only for transactions arriving inside the measurement
	// window, after the warm-up.
	WarmupTime  float64
	MeasureTime float64

	// Mix overrides the built-in transaction-class shares (manufacturing,
	// purchase, manage, browse). A nil/zero value keeps the defaults; a
	// set value must be non-negative and sum to ~1. Changing the mix is
	// how workload-drift scenarios are simulated.
	Mix []float64

	// CollectSamples keeps every measured transaction's response time in
	// completion order, enabling percentile reports and batch-means
	// confidence intervals on the metrics (at some memory cost). Off by
	// default; sweeps only need the means.
	CollectSamples bool
}

// DefaultSystemParams returns the parameters used for all experiments.
func DefaultSystemParams() SystemParams {
	return SystemParams{
		Cores:          16,
		ThreadOverhead: 0.008,
		QueueCap:       50,
		CPUVariation:   0.35,
		DBVariation:    0.45,
		DBSoftLimit:    64,
		DBSlowdown:     0.015,
		WarmupTime:     20,
		MeasureTime:    80,
	}
}

// Validate reports SystemParams errors.
func (sp SystemParams) Validate() error {
	if sp.Mix != nil {
		if len(sp.Mix) != NumClasses {
			return fmt.Errorf("threetier: mix needs %d entries, got %d", NumClasses, len(sp.Mix))
		}
		var sum float64
		for _, m := range sp.Mix {
			if m < 0 {
				return errors.New("threetier: mix shares must be non-negative")
			}
			sum += m
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("threetier: mix sums to %g, want 1", sum)
		}
	}
	return nil
}

// profiles returns the transaction-class table. The demands are calibrated
// so that, at the paper's reference injection rate of 560 tx/s, the web
// pool needs roughly 14–18 threads and the mfg pool roughly 10–16 — the
// regions the paper's figures explore.
func profiles() [NumClasses]classProfile {
	return [NumClasses]classProfile{
		// Manufacturing orders are submitted through the web front end
		// before the manufacturing domain processes them, so a starved web
		// pool raises manufacturing response time too (the slope of
		// Figure 4) while the default queue stays irrelevant to it (the
		// parallel part of Figure 4).
		Manufacturing: {
			mix: 0.25,
			stages: []stage{
				{pool: WebPool, cpuMean: 0.003, dbMean: 0.005},
				{pool: MfgPool, cpuMean: 0.010, dbMean: 0.030},
				{pool: MfgPool, cpuMean: 0.005, dbMean: 0.012},
			},
			deadline: 0.140,
		},
		DealerPurchase: {
			mix: 0.25,
			stages: []stage{
				{pool: WebPool, cpuMean: 0.006, dbMean: 0.020},
				{pool: DefaultPool, cpuMean: 0.004, dbMean: 0.010},
			},
			deadline: 0.080,
		},
		DealerManage: {
			mix: 0.20,
			stages: []stage{
				{pool: WebPool, cpuMean: 0.005, dbMean: 0.015},
				{pool: DefaultPool, cpuMean: 0.003, dbMean: 0.008},
			},
			deadline: 0.060,
		},
		DealerBrowse: {
			mix: 0.30,
			stages: []stage{
				{pool: WebPool, cpuMean: 0.004, dbMean: 0.025},
				{pool: DefaultPool, cpuMean: 0.002, dbMean: 0.004},
			},
			deadline: 0.065,
		},
	}
}

// IndicatorNames returns the five performance-indicator names in the
// paper's order: four response times then effective throughput.
func IndicatorNames() []string {
	return []string{
		"manufacturing_rt",
		"dealer_purchase_rt",
		"dealer_manage_rt",
		"dealer_browse_rt",
		"effective_tps",
	}
}

// FeatureNames returns the four configuration-parameter names in the
// paper's tuple order.
func FeatureNames() []string {
	return []string{"injection_rate", "default_threads", "mfg_threads", "web_threads"}
}
