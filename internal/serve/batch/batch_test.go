package batch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nnwc/internal/serve/registry"
)

// inst builds a fake instance with just the fields the batcher reads.
func inst(tenant string, version int, shape string) *registry.Instance {
	return &registry.Instance{Artifact: registry.Artifact{Tenant: tenant, Version: version, Shape: shape}}
}

// echoRun answers every job with its own X and records batch compositions.
type echoRun struct {
	mu      sync.Mutex
	batches [][]string // tenant refs per batch
}

func (e *echoRun) run(batch []Job) {
	refs := make([]string, len(batch))
	for i, j := range batch {
		refs[i] = j.Inst.Ref()
	}
	e.mu.Lock()
	e.batches = append(e.batches, refs)
	e.mu.Unlock()
	for _, j := range batch {
		j.Reply <- Result{Y: j.X}
	}
}

// TestCrossTenantSharedShapeGroup: two tenants with the same shape land in
// one group and their queued rows coalesce into one super-batch; a tenant
// with a different shape gets its own group.
func TestCrossTenantSharedShapeGroup(t *testing.T) {
	e := &echoRun{}
	// One worker and a huge MaxWait would stall; workers=1, no wait.
	b := New(Config{MaxBatch: 16, MaxWait: 0, Workers: 1}, e.run)
	defer b.Shutdown()

	a := inst("a", 1, "2-8-2")
	c := inst("c", 1, "2-8-2")
	d := inst("d", 1, "2-16-2")

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		target := a
		if i%2 == 1 {
			target = c
		}
		go func(target *registry.Instance, i int) {
			defer wg.Done()
			ys, err := b.Submit(ctx, target, [][]float64{{float64(i), 0}})
			if err != nil {
				t.Error(err)
				return
			}
			if ys[0][0] != float64(i) {
				t.Errorf("row %d echoed %v", i, ys[0])
			}
		}(target, i)
	}
	wg.Wait()
	if _, err := b.Submit(ctx, d, [][]float64{{9, 9}}); err != nil {
		t.Fatal(err)
	}

	if got := b.GroupCount(); got != 2 {
		t.Fatalf("group count %d, want 2 (one per shape)", got)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var crossTenant bool
	rows := 0
	for _, refs := range e.batches {
		rows += len(refs)
		seen := map[string]bool{}
		for _, r := range refs {
			seen[r] = true
		}
		if seen["a@v1"] && seen["c@v1"] {
			crossTenant = true
		}
	}
	if rows != 9 {
		t.Fatalf("answered %d rows, want 9", rows)
	}
	if len(e.batches) >= 9 {
		t.Fatalf("%d batches for 9 rows — no coalescing", len(e.batches))
	}
	if !crossTenant {
		t.Fatalf("no batch mixed tenants a and c: %v", e.batches)
	}
}

// TestGatherHonorsMaxBatch: queued backlog drains as capped batches.
func TestGatherHonorsMaxBatch(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	release := make(chan struct{})
	b := New(Config{MaxBatch: 4, MaxWait: 50 * time.Millisecond, Workers: 1, QueueDepth: 64},
		func(batch []Job) {
			<-release
			mu.Lock()
			sizes = append(sizes, len(batch))
			mu.Unlock()
			for _, j := range batch {
				j.Reply <- Result{Y: j.X}
			}
		})
	defer b.Shutdown()

	a := inst("a", 1, "s")
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Submit(ctx, a, [][]float64{{float64(i)}}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Let all 9 rows queue behind the blocked worker, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sizes {
		if s > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch=4 (%v)", s, sizes)
		}
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 9 {
		t.Fatalf("total rows %d, want 9", total)
	}
}

// TestShedOnFullQueue: a full group queue refuses rows with ErrOverloaded
// instead of blocking the submitter.
func TestShedOnFullQueue(t *testing.T) {
	block := make(chan struct{})
	b := New(Config{MaxBatch: 1, Workers: 1, QueueDepth: 2}, func(batch []Job) {
		<-block
		for _, j := range batch {
			j.Reply <- Result{Y: j.X}
		}
	})
	defer func() { close(block); b.Shutdown() }()

	a := inst("a", 1, "s")
	ctx := context.Background()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := b.Submit(ctx, a, [][]float64{{1}})
			done <- err
		}()
	}
	// With one blocked worker and depth 2, at most 1 (in worker) + 2
	// (queued) submissions can be in flight; the rest must shed promptly.
	deadline := time.After(500 * time.Millisecond)
	shed := 0
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if errors.Is(err, ErrOverloaded) {
				shed++
			} else if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			if shed >= 5 {
				return // the non-shed submissions are still blocked on the worker; fine
			}
			t.Fatalf("only %d rows shed before deadline", shed)
		}
	}
	if shed < 5 {
		t.Fatalf("shed %d rows, want >= 5", shed)
	}
	if b.Sheds() == 0 {
		t.Fatal("shed counter not incremented")
	}
}

// TestShutdownDrainsQueue: jobs queued at shutdown are answered with
// ErrDraining, and later submits refuse immediately.
func TestShutdownDrainsQueue(t *testing.T) {
	b := New(Config{MaxBatch: 4, Workers: 1}, func(batch []Job) {
		for _, j := range batch {
			j.Reply <- Result{Y: j.X}
		}
	})
	a := inst("a", 1, "s")
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	b.Shutdown()
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown = %v, want ErrDraining", err)
	}
}

// gatedRun is echoRun whose first batch blocks until release closes, so a
// test can queue rows behind a busy worker.
type gatedRun struct {
	echoRun
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedRun() *gatedRun {
	return &gatedRun{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedRun) run(batch []Job) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	g.echoRun.run(batch)
}

// submitAsync submits one row and delivers its error on the returned
// channel.
func submitAsync(b *Batcher, in *registry.Instance, x float64) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), in, [][]float64{{x}})
		done <- err
	}()
	return done
}

// forceCoalescing makes the group of in gather one multi-row batch: the
// first row blocks the only worker, two more queue behind it, and the
// release lets them run together.
func forceCoalescing(t *testing.T, b *Batcher, g *gatedRun, in *registry.Instance) {
	t.Helper()
	first := submitAsync(b, in, 0)
	<-g.started
	second, third := submitAsync(b, in, 1), submitAsync(b, in, 2)
	q := b.group(in.Shape).jobs
	for deadline := time.Now().Add(5 * time.Second); len(q) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d rows queued behind the blocked worker", len(q))
		}
	}
	close(g.release)
	for _, done := range []<-chan error{first, second, third} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if last := g.batches[len(g.batches)-1]; len(last) != 2 {
		t.Fatalf("queued rows ran as a batch of %d, want 2 (%v)", len(last), g.batches)
	}
}

// TestLoneRowOnQuietGroupRunsAtOnce: with no coalescing observed, a lone
// row is not held, so it returns well inside a long MaxWait.
func TestLoneRowOnQuietGroupRunsAtOnce(t *testing.T) {
	e := &echoRun{}
	const maxWait = time.Second
	b := New(Config{MaxBatch: 8, MaxWait: maxWait, Workers: 1}, e.run)
	defer b.Shutdown()
	a := inst("a", 1, "s")
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := b.Submit(context.Background(), a, [][]float64{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > maxWait/4 {
			t.Fatalf("lone row %d took %v on a quiet group (MaxWait %v)", i, elapsed, maxWait)
		}
	}
	if h := b.Holds(); h != 0 {
		t.Fatalf("%d lone rows held on a quiet group, want 0", h)
	}
}

// TestLoneRowHeldWhileCoalescing: once a group's batch found company, the
// next lone row is held and picks up a row that arrives shortly after.
func TestLoneRowHeldWhileCoalescing(t *testing.T) {
	g := newGatedRun()
	b := New(Config{MaxBatch: 8, MaxWait: time.Second, Workers: 1}, g.run)
	defer b.Shutdown()
	a := inst("a", 1, "s")
	forceCoalescing(t, b, g, a)

	lone := submitAsync(b, a, 10)
	time.Sleep(10 * time.Millisecond)
	late := submitAsync(b, a, 11)
	for _, done := range []<-chan error{lone, late} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	g.mu.Lock()
	last := g.batches[len(g.batches)-1]
	g.mu.Unlock()
	if len(last) != 2 {
		t.Fatalf("held row ran in a batch of %d, want 2 with the late row (%v)", len(last), g.batches)
	}
	if h, j := b.Holds(), b.HoldsJoined(); h != 1 || j != 1 {
		t.Fatalf("holds=%d joined=%d, want 1 and 1", h, j)
	}
}

// TestHeldRowReturnsByMaxWait: a held row that finds no company still
// runs when MaxWait expires, and the singleton batch ends the group's
// coalescing, so the next lone row is not held.
func TestHeldRowReturnsByMaxWait(t *testing.T) {
	g := newGatedRun()
	const maxWait = 50 * time.Millisecond
	b := New(Config{MaxBatch: 8, MaxWait: maxWait, Workers: 1}, g.run)
	defer b.Shutdown()
	a := inst("a", 1, "s")
	forceCoalescing(t, b, g, a)

	start := time.Now()
	if _, err := b.Submit(context.Background(), a, [][]float64{{10}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < maxWait || elapsed > 10*maxWait {
		t.Fatalf("held row returned after %v, want about MaxWait=%v", elapsed, maxWait)
	}
	if h, j := b.Holds(), b.HoldsJoined(); h != 1 || j != 0 {
		t.Fatalf("holds=%d joined=%d, want 1 and 0", h, j)
	}

	start = time.Now()
	if _, err := b.Submit(context.Background(), a, [][]float64{{11}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= maxWait {
		t.Fatalf("lone row after an expired hold took %v, want no hold", elapsed)
	}
	if h := b.Holds(); h != 1 {
		t.Fatalf("holds=%d after the group went quiet, want 1", h)
	}
}
