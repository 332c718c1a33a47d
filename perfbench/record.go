package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"banshee"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo fingerprints the machine and the tree measured.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	// Tree is the git SHA of the checkout when it is a git work tree,
	// else "sha256:<digest>" over every source file of the checkout.
	Tree string `json:"tree"`
}

// record is everything one run measured: the fingerprint, every raw
// sample by series, the summaries, digests of the simulated outputs,
// and every correctness or replay mismatch.
type record struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Host       hostInfo             `json:"host"`
	Params     map[string]any       `json:"params"`
	Samples    map[string][]float64 `json:"samples"`
	EndToEnd   map[string]metric    `json:"end_to_end"`
	Layers     map[string]metric    `json:"per_layer,omitempty"`
	Digests    []string             `json:"digests"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Mismatches []string             `json:"mismatches"`
	Errors     []string             `json:"errors,omitempty"`
	Exceptions []string             `json:"replay_exceptions,omitempty"`
	Path       string               `json:"-"`
}

func newRecord(o options) *record {
	return &record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host:     fingerprint(),
		Params:   map[string]any{},
		Samples:  map[string][]float64{},
		EndToEnd: map[string]metric{},
		Layers:   map[string]metric{},
	}
}

func (r *record) sample(series string, v float64) { r.Samples[series] = append(r.Samples[series], v) }
func (r *record) e2e(name string, v float64, unit string) {
	r.EndToEnd[name] = metric{v, unit}
}
func (r *record) layer(name string, v float64, unit string) { r.Layers[name] = metric{v, unit} }

// mismatch records a wrong output or a replay that failed to reproduce
// the run; any mismatch makes the run incorrect.
func (r *record) mismatch(format string, args ...any) {
	r.Failed++
	r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
}

// fail records an operation that returned an error or was shed: it
// counts as failed, but no output was produced to be wrong.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// setUp performs build repeats times, releasing all but the last
// result, and records the medians: setup_s in CPU time (see cpuTime)
// and setup_wall_s in wall time. The state built by the last repetition
// is what the run measures.
func setUp[T any](rec *record, repeats int, build func() (T, error), release func(T)) (T, error) {
	var cur T
	for i := 0; i < repeats; i++ {
		if i > 0 {
			release(cur)
		}
		c, t := cpuTime(), time.Now()
		v, err := build()
		if err != nil {
			return v, err
		}
		rec.sample("setup_wall_s", time.Since(t).Seconds())
		rec.sample("setup_s", (cpuTime() - c).Seconds())
		cur = v
	}
	rec.e2e("setup_s", median(rec.Samples["setup_s"]), "s")
	rec.e2e("setup_wall_s", median(rec.Samples["setup_wall_s"]), "s")
	return cur, nil
}

// cpuTime is the CPU time the process has used so far, every thread
// summed (the garbage collector's included). Unlike wall-clock time it
// leaves out the time a virtual machine's CPUs were taken away to run
// other guests (steal time): the kernel does not charge that to any
// task.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives the i-th input seed from the run's seed (splitmix64), so
// every input a run generates is a function of -seed alone.
func mix(seed, i uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// digest is a short content digest of a simulation result.
func digest(r banshee.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: result not encodable: %v", err)) // plain data
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// peakRSSMB is the process's resident-set high-water mark in MB, read
// from /proc (the Go runtime's Sys figure where /proc is absent).
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS collects the heap, returns the freed memory to the OS and
// resets the kernel's resident-set high-water mark, so the next
// peakRSSMB reading is the peak of what runs after it, the retained
// state included. It reports whether the kernel allowed the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

func fingerprint() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Tree:       treeID(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// treeID identifies the measured tree: the git SHA when the working
// directory is a git checkout, else a digest over its source files (the
// directories starting with "." — build output, VCS — excluded).
func treeID() string {
	if _, err := os.Stat(".git"); err != nil {
		return sourceDigest()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			dirty := ""
			if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
				dirty = "+dirty"
			}
			return sha + dirty
		}
	}
	return sourceDigest()
}

// sourceDigest digests every Go source and go.mod file under the
// working directory.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)[:8])
}
