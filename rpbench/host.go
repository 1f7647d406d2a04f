package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machineInfo is the host record printed with every run, so the spread
// of a metric can be read against the machine and the hypervisor steal
// it ran under.
type machineInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	StealPct   float64 `json:"host_steal_pct"`
	Samples    int     `json:"latency_samples"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal column (the eighth value).
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			break
		}
		if i >= 8 { // guest and guest_nice are already counted in user and nice
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of all CPU time the hypervisor took between two
// readings, in percent.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads VmRSS, the process's resident set, in MiB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// goStats is a snapshot of the runtime counters the per-layer go.*
// metrics are deltas of.
type goStats struct {
	allocObjects, allocBytes uint64
	gcCPUSeconds             float64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s goStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocObjects = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUSeconds = samples[2].Value.Float64()
	}
	return s
}

// rssPeaks samples the resident set every 20 ms and keeps each second's
// peak. The median of those peaks is the typical peak of the serving
// process; the all-time VmHWM instead records the one largest excursion
// of the garbage collector's heap, which swung by 30% between runs of
// the same code.
type rssPeaks struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

func sampleRSS() *rssPeaks {
	r := &rssPeaks{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		next := time.Now().Add(time.Second)
		peak := rssMB()
		for {
			select {
			case <-r.stop:
				r.peaks = append(r.peaks, peak)
				return
			case now := <-tick.C:
				if now.After(next) {
					r.peaks = append(r.peaks, peak)
					peak = 0
					next = next.Add(time.Second)
				}
				peak = max(peak, rssMB())
			}
		}
	}()
	return r
}

// median stops the sampler and returns the median per-second peak.
func (r *rssPeaks) median() float64 {
	close(r.stop)
	<-r.done
	return median(r.peaks)
}

// window brackets a timed phase: wall clock, process CPU, hypervisor
// steal and runtime counters at its start, and the resident-set sampler.
type window struct {
	wall  time.Time
	cpu   time.Duration
	ticks cpuTicks
	gos   goStats
	rss   *rssPeaks
}

// snapshot reads the counters without starting the resident-set sampler.
func snapshot() window {
	return window{wall: time.Now(), cpu: processCPU(), ticks: readCPUTicks(), gos: readGoStats()}
}

func openWindow() window {
	w := snapshot()
	w.rss = sampleRSS()
	return w
}

// windowDelta is what a timed phase consumed.
type windowDelta struct {
	wall     time.Duration
	cpu      time.Duration
	stealPct float64
	allocs   float64
	allocMB  float64
	gcCPUms  float64
	rssMB    float64 // median of the per-second peak resident sets
}

// since is what was consumed between the snapshot w and now.
func (w window) since() windowDelta {
	now := snapshot()
	return windowDelta{
		wall:     now.wall.Sub(w.wall),
		cpu:      now.cpu - w.cpu,
		stealPct: stealPct(w.ticks, now.ticks),
		allocs:   float64(now.gos.allocObjects - w.gos.allocObjects),
		allocMB:  float64(now.gos.allocBytes-w.gos.allocBytes) / (1 << 20),
		gcCPUms:  (now.gos.gcCPUSeconds - w.gos.gcCPUSeconds) * 1000,
	}
}

// close stops the resident-set sampler and returns the whole phase.
func (w window) close() windowDelta {
	rss := w.rss.median()
	d := w.since()
	d.rssMB = rss
	return d
}

// plus adds the consumption of o; steal and memory stay d's.
func (d windowDelta) plus(o windowDelta) windowDelta {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocs += o.allocs
	d.allocMB += o.allocMB
	d.gcCPUms += o.gcCPUms
	return d
}

// minus takes the consumption of o out of d; steal and memory stay d's.
func (d windowDelta) minus(o windowDelta) windowDelta {
	o.wall, o.cpu, o.allocs, o.allocMB, o.gcCPUms = -o.wall, -o.cpu, -o.allocs, -o.allocMB, -o.gcCPUms
	return d.plus(o)
}

func nproc() int { return runtime.NumCPU() }
