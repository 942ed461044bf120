// Delta-admission tests: byte-identity of AdmitDelta against whole-set
// Admit, base resolution and cold-base fallback, malformed deltas, eval
// cache sharing, and the admit-path single-flight races the analyze side
// already pins (run under -race in CI's taskset job).
package service

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	hetrta "repro"
)

// deltaChain builds one chain task with distinct weights so different
// (w1, w2) pairs produce different digests.
func deltaChain(w1, w2 int64, period, deadline int64) hetrta.SporadicTask {
	g := hetrta.NewGraph()
	a := g.AddNode("a", w1, hetrta.Host)
	b := g.AddNode("b", w2, hetrta.Offload)
	c := g.AddNode("c", 3, hetrta.Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	return hetrta.SporadicTask{G: g, Period: period, Deadline: deadline}
}

// TestAdmitDeltaByteIdentical: the acceptance-criterion identity. Admitting
// base±one-task via AdmitDelta returns bytes identical to a whole-set
// Admit of the resulting set on a FRESH service (no shared state at all),
// and the delta's entry is the resulting set's cache entry (a following
// whole-set Admit hits).
func TestAdmitDeltaByteIdentical(t *testing.T) {
	ctx := context.Background()
	t1 := deltaChain(2, 8, 60, 50)
	t2 := deltaChain(1, 4, 40, 40)
	t3 := deltaChain(3, 6, 80, 70)

	svc := admitService(t, Options{})
	baseRes, err := svc.Admit(ctx, hetrta.Taskset{Tasks: []hetrta.SporadicTask{t1, t2}})
	if err != nil {
		t.Fatal(err)
	}

	// add one, remove one: resulting set {t2, t3}.
	delta := hetrta.TasksetDelta{Add: []hetrta.SporadicTask{t3}, Remove: []hetrta.TaskDigest{t1.Digest()}}
	dres, err := svc.AdmitDelta(ctx, baseRes.Fingerprint, delta)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Hit {
		t.Fatal("first delta admission should miss")
	}

	resulting := hetrta.Taskset{Tasks: []hetrta.SporadicTask{t2, t3}}
	if got, want := dres.Fingerprint, resulting.Fingerprint(); got != want {
		t.Fatalf("delta fingerprint %s, want resulting set's %s", got, want)
	}

	fresh := admitService(t, Options{})
	fullRes, err := fresh.Admit(ctx, resulting)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dres.Body, fullRes.Body) {
		t.Fatalf("delta body differs from whole-set admit:\n%s\n%s", dres.Body, fullRes.Body)
	}

	// The delta cached the resulting set's entry: whole-set admit hits it.
	again, err := svc.Admit(ctx, resulting)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hit || !bytes.Equal(again.Body, dres.Body) {
		t.Fatalf("whole-set admit after delta: hit=%v", again.Hit)
	}

	// Results chain: the delta's result anchors the next delta.
	t1b := hetrta.SporadicTask{G: t1.G, Period: t1.Period + 10, Deadline: t1.Deadline}
	chain, err := svc.AdmitDelta(ctx, dres.Fingerprint,
		hetrta.TasksetDelta{Update: []hetrta.TaskDeltaUpdate{{Old: t3.Digest(), Task: t1b}}})
	if err != nil {
		t.Fatal(err)
	}
	want := hetrta.Taskset{Tasks: []hetrta.SporadicTask{t2, t1b}}
	if chain.Fingerprint != want.Fingerprint() {
		t.Fatal("chained delta produced the wrong resulting set")
	}

	// t1's and t2's evals were reused across the three admissions.
	st := svc.Stats()
	if st.EvalHits == 0 {
		t.Fatalf("no eval reuse across delta admissions: %+v", st)
	}
	if st.EvalMisses != 4 { // t1, t2, t3, t1b each prepared exactly once
		t.Fatalf("eval misses = %d, want 4: %+v", st.EvalMisses, st)
	}
}

// TestAdmitDeltaAnchorTracksSet: along a chain of update events, each
// resulting entry anchors the eval handles of its own tasks only — an
// update's replaced handle is dropped, so the anchor map never holds more
// handles than the set has distinct digests.
func TestAdmitDeltaAnchorTracksSet(t *testing.T) {
	ctx := context.Background()
	svc := admitService(t, Options{})
	tasks := []hetrta.SporadicTask{
		deltaChain(2, 8, 60, 50), deltaChain(1, 4, 40, 40), deltaChain(3, 6, 80, 70),
	}
	res, err := svc.Admit(ctx, hetrta.Taskset{Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		i := step % len(tasks)
		old := tasks[i]
		tasks[i] = hetrta.SporadicTask{G: old.G, Period: old.Period + 1, Deadline: old.Deadline}
		res, err = svc.AdmitDelta(ctx, res.Fingerprint, hetrta.TasksetDelta{
			Update: []hetrta.TaskDeltaUpdate{{Old: old.Digest(), Task: tasks[i]}},
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ent, ok := svc.lookup(svc.admitKeyOf(res.Fingerprint))
		if !ok {
			t.Fatalf("step %d: resulting set not anchored", step)
		}
		distinct := map[hetrta.TaskDigest]bool{}
		for _, dg := range ent.digests {
			distinct[dg] = true
		}
		if len(ent.evals) > len(distinct) {
			t.Fatalf("step %d: anchor holds %d eval handles for %d distinct tasks",
				step, len(ent.evals), len(distinct))
		}
	}
}

// TestAdmitDeltaEmptyDeltaHits: an empty delta resolves to the base itself
// and is served its cached bytes.
func TestAdmitDeltaEmptyDeltaHits(t *testing.T) {
	ctx := context.Background()
	svc := admitService(t, Options{})
	baseRes, err := svc.Admit(ctx, admitTaskset(false))
	if err != nil {
		t.Fatal(err)
	}
	dres, err := svc.AdmitDelta(ctx, baseRes.Fingerprint, hetrta.TasksetDelta{})
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Hit || !bytes.Equal(dres.Body, baseRes.Body) {
		t.Fatalf("empty delta not served from the base entry: hit=%v", dres.Hit)
	}
}

// TestAdmitDeltaUnknownBase: a cold base fingerprint is ErrUnknownBase,
// never an implicit full admission.
func TestAdmitDeltaUnknownBase(t *testing.T) {
	svc := admitService(t, Options{})
	var cold hetrta.TasksetFingerprint
	cold[0] = 0xab
	_, err := svc.AdmitDelta(context.Background(), cold, hetrta.TasksetDelta{Add: []hetrta.SporadicTask{deltaChain(1, 2, 10, 10)}})
	if !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("cold base error = %v, want ErrUnknownBase", err)
	}
	if st := svc.Stats(); st.Requests != 1 || st.Executions != 0 {
		t.Fatalf("cold-base stats: %+v", st)
	}
}

// TestAdmitDeltaMalformed: a delta referencing a digest absent from the
// base is the client's error (ErrInvalidInput), and nothing executes.
func TestAdmitDeltaMalformed(t *testing.T) {
	ctx := context.Background()
	svc := admitService(t, Options{})
	baseRes, err := svc.Admit(ctx, admitTaskset(false))
	if err != nil {
		t.Fatal(err)
	}
	stranger := deltaChain(9, 9, 30, 30)
	_, err = svc.AdmitDelta(ctx, baseRes.Fingerprint,
		hetrta.TasksetDelta{Remove: []hetrta.TaskDigest{stranger.Digest()}})
	if !errors.Is(err, hetrta.ErrInvalidInput) {
		t.Fatalf("unknown digest error = %v, want ErrInvalidInput", err)
	}
	if st := svc.Stats(); st.Executions != 1 { // only the base admission ran
		t.Fatalf("malformed delta executed: %+v", st)
	}
}

// TestEvalCacheSharedAcrossTasksets: two different tasksets sharing a task
// prepare the shared task once.
func TestEvalCacheSharedAcrossTasksets(t *testing.T) {
	ctx := context.Background()
	svc := admitService(t, Options{})
	shared := deltaChain(2, 8, 60, 50)
	a := deltaChain(1, 4, 40, 40)
	b := deltaChain(3, 6, 80, 70)
	if _, err := svc.Admit(ctx, hetrta.Taskset{Tasks: []hetrta.SporadicTask{shared, a}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admit(ctx, hetrta.Taskset{Tasks: []hetrta.SporadicTask{shared, b}}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.EvalMisses != 3 || st.EvalHits != 1 {
		t.Fatalf("eval sharing: misses=%d hits=%d, want 3/1: %+v", st.EvalMisses, st.EvalHits, st)
	}
}

// TestAdmitDeltaCancelledLeaderRetry mirrors the analyze-side
// waiters-retry-with-their-own-ctx race on the DELTA path: two AdmitDelta
// calls race on the resulting set's flight, the leader's context dies
// mid-execution, and the waiter must complete with its own live context.
func TestAdmitDeltaCancelledLeaderRetry(t *testing.T) {
	ctx := context.Background()
	svc := admitService(t, Options{})
	baseRes, err := svc.Admit(ctx, admitTaskset(false))
	if err != nil {
		t.Fatal(err)
	}
	delta := hetrta.TasksetDelta{Add: []hetrta.SporadicTask{deltaChain(3, 6, 80, 70)}}

	inner := svc.execAdmit
	leaderStarted := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var once sync.Once
	svc.execAdmit = func(ctx context.Context, ts hetrta.Taskset, ds []hetrta.TaskDigest, src hetrta.TaskEvalSource) (*hetrta.AdmitReport, error) {
		once.Do(func() {
			close(leaderStarted)
			<-ctx.Done()
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return inner(ctx, ts, ds, src)
	}

	done := make(chan error, 1)
	go func() {
		_, err := svc.AdmitDelta(leaderCtx, baseRes.Fingerprint, delta)
		done <- err
	}()
	<-leaderStarted

	waiterDone := make(chan error, 1)
	go func() {
		r, err := svc.AdmitDelta(context.Background(), baseRes.Fingerprint, delta)
		if err == nil && r.Report == nil {
			err = errors.New("nil report")
		}
		waiterDone <- err
	}()
	cancelLeader()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter after cancelled leader: %v", err)
	}
}

// TestAdmitDeltaEvictedBase404: a base whose admit entry was LRU-evicted
// (and the service has no store tier to revive it from) must surface
// ErrUnknownBase — the client's signal to fall back to a full admit —
// never an infrastructure error.
func TestAdmitDeltaEvictedBase404(t *testing.T) {
	svc := admitService(t, Options{CacheEntries: 1, Shards: 1})
	ctx := context.Background()

	base := hetrta.Taskset{Tasks: []hetrta.SporadicTask{
		deltaChain(2, 8, 60, 50),
		deltaChain(1, 4, 40, 40),
	}}
	rb, err := svc.Admit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	// Churn the single-entry cache until the admit entry is gone.
	if _, err := svc.Analyze(ctx, chainGraph(t, 17)); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.cache.get(svc.admitKeyOf(rb.Fingerprint)); ok {
		t.Fatal("admit entry still resident; eviction setup is broken")
	}
	_, err = svc.AdmitDelta(ctx, rb.Fingerprint, hetrta.TasksetDelta{
		Add: []hetrta.SporadicTask{deltaChain(3, 5, 80, 70)},
	})
	if !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("delta against evicted base: err = %v, want ErrUnknownBase", err)
	}
}

// TestAdmitDeltaEvictionRace: the forced-eviction regression test (run
// under -race in CI). Deltas race against cache churn that constantly
// evicts the base admit entry and its eval| handles from a single-slot
// cache; every AdmitDelta call must either return the byte-identical
// correct report or ErrUnknownBase (the 404 path) — never any other
// error and never different bytes (a partial-reuse report).
func TestAdmitDeltaEvictionRace(t *testing.T) {
	svc := admitService(t, Options{CacheEntries: 1, Shards: 1})
	ctx := context.Background()

	base := hetrta.Taskset{Tasks: []hetrta.SporadicTask{
		deltaChain(2, 8, 60, 50),
		deltaChain(1, 4, 40, 40),
	}}
	add := deltaChain(3, 5, 80, 70)
	delta := hetrta.TasksetDelta{Add: []hetrta.SporadicTask{add}}

	// Reference bytes from an isolated service: what every successful
	// delta must serve.
	ref := admitService(t, Options{})
	full := hetrta.Taskset{Tasks: append(append([]hetrta.SporadicTask(nil), base.Tasks...), add)}
	want, err := ref.Admit(ctx, full)
	if err != nil {
		t.Fatal(err)
	}

	rb, err := svc.Admit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for w := int64(100); ; w++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = svc.Analyze(ctx, chainGraph(t, w)) // evicts whatever is resident
		}
	}()

	var (
		workers sync.WaitGroup
		mu      sync.Mutex
		oks     int
		misses  int
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				// Periodically re-anchor the base so both outcomes occur.
				if i%5 == 0 {
					_, _ = svc.Admit(ctx, base)
				}
				r, err := svc.AdmitDelta(ctx, rb.Fingerprint, delta)
				switch {
				case err == nil:
					if !bytes.Equal(r.Body, want.Body) {
						fail("delta served non-identical bytes:\n%s\n%s", r.Body, want.Body)
						return
					}
					mu.Lock()
					oks++
					mu.Unlock()
				case errors.Is(err, ErrUnknownBase):
					mu.Lock()
					misses++
					mu.Unlock()
				default:
					fail("delta under eviction churn: unexpected error %v", err)
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	churn.Wait()
	if oks+misses == 0 {
		t.Fatal("no delta calls completed")
	}
	t.Logf("delta outcomes under churn: %d identical, %d ErrUnknownBase", oks, misses)
}
