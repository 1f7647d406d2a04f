package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testKind is the task kind the protocol tests run: a deterministic
// stand-in for the server's runners, so the lease, reclaim and
// completion machinery is exercised without any assessment code.
const testKind = "test"

// testTask builds the test task over one CAS blob.
func testTask(digest string) Task { return NewTask(testKind, nil, digest) }

// digestRunner is the test kind's runner: the SHA-256 of the task's
// blob, so duplicate executions write identical bytes. A blob starting
// with "fail" fails the task terminally, as bad data fails a real one.
func digestRunner(ctx context.Context, st *Store, t *Task) ([]byte, error) {
	body, err := os.ReadFile(st.CASPath(t.Digest))
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(body, []byte("fail")) {
		return nil, fmt.Errorf("test task %s: bad blob", t.ID)
	}
	sum := sha256.Sum256(body)
	return sum[:], nil
}

// testPlan stores n distinct seeded blobs and returns their test tasks
// plus the result each must produce — the golden every fault schedule
// has to converge to. The same (n, seed) always yields the same task
// ids, the way a restarted coordinator re-derives its plan.
func testPlan(t *testing.T, st *Store, n int, seed int64) ([]Task, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]Task, n)
	want := make([][]byte, n)
	for i := range tasks {
		blob := []byte(fmt.Sprintf("blob %d/%d: %x\n", i, n, rng.Uint64()))
		d, err := st.PutBytes(blob)
		if err != nil {
			t.Fatalf("put blob: %v", err)
		}
		tasks[i] = testTask(d)
		sum := sha256.Sum256(blob)
		want[i] = sum[:]
	}
	return tasks, want
}

// runPlan enqueues every task and awaits their results in plan order.
func runPlan(ctx context.Context, c *Coordinator, tasks []Task) ([][]byte, error) {
	ids := make([]string, len(tasks))
	for i, task := range tasks {
		if err := c.Store().Enqueue(task); err != nil {
			return nil, err
		}
		ids[i] = task.ID
	}
	return c.Await(ctx, ids)
}

// checkPlan fails the test unless got is exactly the plan's golden.
func checkPlan(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("plan returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("task %d result differs from its golden", i)
		}
	}
}

func openStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(filepath.Join(t.TempDir(), "cluster"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// fakeTask builds a claimable task over a blob that was never stored,
// for protocol tests that do not care what it computes.
func fakeTask(i int) Task {
	sum := sha256.Sum256([]byte(fmt.Sprintf("fake-%d", i)))
	return testTask(hex.EncodeToString(sum[:]))
}

func TestClaimExactlyOnce(t *testing.T) {
	st := openStore(t)
	const tasks = 24
	for i := 0; i < tasks; i++ {
		if err := st.Enqueue(fakeTask(i)); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	// Competing claimers must partition the queue: every task claimed by
	// exactly one node, no task claimed twice, none lost.
	var mu sync.Mutex
	got := make(map[string]int)
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		node := fmt.Sprintf("node%d", n)
		if err := st.WriteHeartbeat(Heartbeat{Node: node, Role: "worker", Time: time.Now().UTC()}); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, err := st.Claim(node)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if task == nil {
					return
				}
				mu.Lock()
				got[task.ID]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != tasks {
		t.Fatalf("claimed %d distinct tasks, want %d", len(got), tasks)
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("task %s claimed %d times", id, n)
		}
	}
}

func TestEnqueueIdempotent(t *testing.T) {
	st := openStore(t)
	task := fakeTask(0)
	for i := 0; i < 3; i++ {
		if err := st.Enqueue(task); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if p, c, d := st.QueueStats(); p != 1 || c != 0 || d != 0 {
		t.Fatalf("after re-enqueue: pending=%d claimed=%d done=%d, want 1/0/0", p, c, d)
	}
	claimed, err := st.Claim("node0")
	if err != nil || claimed == nil {
		t.Fatalf("claim: %v, task=%v", err, claimed)
	}
	// Claimed tasks must not be re-enqueued — that would run them twice
	// concurrently for no reason.
	if err := st.Enqueue(task); err != nil {
		t.Fatalf("enqueue claimed: %v", err)
	}
	if p, c, _ := st.QueueStats(); p != 0 || c != 1 {
		t.Fatalf("after enqueue of claimed: pending=%d claimed=%d, want 0/1", p, c)
	}
	if err := st.Complete(claimed, []byte("r"), ""); err != nil {
		t.Fatalf("complete: %v", err)
	}
	// Done tasks must not be re-enqueued either — their result is final.
	if err := st.Enqueue(task); err != nil {
		t.Fatalf("enqueue done: %v", err)
	}
	if p, c, d := st.QueueStats(); p != 0 || c != 0 || d != 1 {
		t.Fatalf("after enqueue of done: pending=%d claimed=%d done=%d, want 0/0/1", p, c, d)
	}
	body, msg, ok, err := st.TaskResult(task.ID)
	if err != nil || !ok || msg != "" || string(body) != "r" {
		t.Fatalf("TaskResult = %q, %q, %v, %v", body, msg, ok, err)
	}
}

func TestReclaimExpired(t *testing.T) {
	st := openStore(t)
	now := time.Now().UTC()
	ttl := time.Second

	// ghost claimed a task and never heartbeat: reclaimed.
	if err := st.Enqueue(fakeTask(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Claim("ghost"); err != nil {
		t.Fatal(err)
	}
	n, err := st.ReclaimExpired(ttl, now)
	if err != nil || n != 1 {
		t.Fatalf("reclaim from heartbeat-less node: n=%d err=%v, want 1", n, err)
	}
	if p, c, _ := st.QueueStats(); p != 1 || c != 0 {
		t.Fatalf("after reclaim: pending=%d claimed=%d, want 1/0", p, c)
	}

	// live claimed a task and has a fresh heartbeat: kept.
	if err := st.WriteHeartbeat(Heartbeat{Node: "live", Role: "worker", Time: now}); err != nil {
		t.Fatal(err)
	}
	task, err := st.Claim("live")
	if err != nil || task == nil {
		t.Fatalf("claim: %v", err)
	}
	if n, _ := st.ReclaimExpired(ttl, now); n != 0 {
		t.Fatalf("reclaimed %d leases from a live node, want 0", n)
	}

	// The heartbeat goes stale: reclaimed.
	if n, _ := st.ReclaimExpired(ttl, now.Add(2*ttl)); n != 1 {
		t.Fatalf("stale heartbeat not reclaimed")
	}

	// A corrupt heartbeat reads as dead regardless of freshness — the
	// liveness judgment is over parsed content, never file mtime.
	if _, err := st.Claim("live"); err != nil {
		t.Fatal(err)
	}
	hbPath := filepath.Join(st.Root(), "nodes", "live.json")
	if err := os.WriteFile(hbPath, []byte("{{{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.ReclaimExpired(ttl, now); n != 1 {
		t.Fatalf("corrupt heartbeat not treated as dead")
	}

	// A dead owner whose task is already done: the claim file is garbage
	// collected, nothing re-runs.
	task2 := fakeTask(1)
	if err := st.Enqueue(task2); err != nil {
		t.Fatal(err)
	}
	claimed2, err := st.Claim("ghost")
	if err != nil || claimed2 == nil {
		t.Fatal(err)
	}
	if err := st.Complete(&Task{ID: claimed2.ID}, []byte("r"), ""); err != nil {
		t.Fatal(err)
	}
	// Completing via a bare task (no owner) leaves ghost's claim file in
	// place — exactly the crash-after-complete shape.
	if n, _ := st.ReclaimExpired(ttl, now); n != 0 {
		t.Fatalf("re-ran an already-done task")
	}
	// All claims are resolved now: the done task's claim file was garbage
	// collected, and fakeTask(0) went back to pending when its owner's
	// heartbeat was corrupted above.
	if p, c, d := st.QueueStats(); p != 1 || c != 0 || d != 1 {
		t.Fatalf("pending=%d claimed=%d done=%d, want 1/0/1", p, c, d)
	}
}

func TestCASAndResultCache(t *testing.T) {
	st := openStore(t)
	d1, err := st.PutBytes([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := st.PutBytes([]byte("hello"))
	if err != nil || d2 != d1 {
		t.Fatalf("identical content got digests %s vs %s", d1, d2)
	}
	if !st.HasBlob(d1) {
		t.Fatal("blob missing after PutBytes")
	}
	body, err := os.ReadFile(st.CASPath(d1))
	if err != nil || string(body) != "hello" {
		t.Fatalf("CAS blob = %q, %v", body, err)
	}
	f := filepath.Join(t.TempDir(), "u.csv")
	if err := os.WriteFile(f, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := st.PutFile(f)
	if err != nil || d3 != d1 {
		t.Fatalf("PutFile digest %s, want %s (%v)", d3, d1, err)
	}

	if _, ok := st.CachedResult("key1"); ok {
		t.Fatal("cache hit before put")
	}
	if err := st.PutCachedResult("key1", []byte("result")); err != nil {
		t.Fatal(err)
	}
	got, ok := st.CachedResult("key1")
	if !ok || string(got) != "result" {
		t.Fatalf("CachedResult = %q, %v", got, ok)
	}
}

// TestExternalWorkersRunPlan runs a pure coordinator (no embedded
// claim loops) against separate worker instances over the same state
// dir — the same claim/heartbeat/done protocol separate OS processes
// speak, exercised in-process so the test stays hermetic. AliveWorkers
// must count the external loops: the server gates delegation on it.
func TestExternalWorkersRunPlan(t *testing.T) {
	st := openStore(t)
	tasks, want := testPlan(t, st, 6, 7)

	for i := 0; i < 3; i++ {
		w, err := NewWorker(st, WorkerOptions{
			Node: fmt.Sprintf("ext%d", i), Poll: 2 * time.Millisecond,
			HeartbeatEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Register(testKind, digestRunner)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
	}
	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: -1, Poll: 2 * time.Millisecond, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.AliveWorkers(time.Now().UTC()); got != 3 {
		t.Fatalf("AliveWorkers = %d, want 3", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := runPlan(ctx, c, tasks)
	if err != nil {
		t.Fatalf("runPlan: %v", err)
	}
	checkPlan(t, got, want)
}

// TestAwaitSurfacesTaskFailure pins the failure path: a runner failing
// on bad data completes its task terminally, and Await surfaces that
// as a *TaskError — the type the server uses to tell a task's own
// failure from a sick cluster.
func TestAwaitSurfacesTaskFailure(t *testing.T) {
	st := openStore(t)
	bad, err := st.PutBytes([]byte("fail: not a valid blob\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: 1, Poll: 2 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(testKind, digestRunner)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, _ := testPlan(t, st, 2, 3)
	_, err = runPlan(ctx, c, append(tasks, testTask(bad)))
	var te *TaskError
	if !errors.As(err, &te) || te.ID != testTask(bad).ID {
		t.Fatalf("runPlan over a bad blob = %v, want a *TaskError for task %s", err, testTask(bad).ID)
	}
}
