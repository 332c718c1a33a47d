// Command tracegen is the workload tooling of the capture/replay
// subsystem: it samples or summarizes any registered workload stream
// (synthetic profiles, graph kernels, or recorded traces), records
// workloads into durable .btrc trace files, and dumps a trace file's
// header and chunk index.
//
// Usage:
//
//	tracegen -workload pagerank -n 20              # dump 20 events
//	tracegen -workload lbm -n 200000 -summary      # aggregate statistics
//	tracegen record -workload mcf -o mcf.btrc -events 500000
//	tracegen -workload file:mcf.btrc -summary      # replay a recording
//	tracegen inspect -file mcf.btrc
//
// Workload names accepted anywhere include "file:<path>", so recorded
// traces are sampled and summarized like any synthetic stream. To
// simulate a recording, run it through bansheesim like any workload:
//
//	bansheesim -workload file:mcf.btrc -scheme Banshee
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"banshee/internal/mem"
	"banshee/internal/tracefile"
	"banshee/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			record(os.Args[2:])
			return
		case "inspect":
			inspect(os.Args[2:])
			return
		}
	}
	sample(os.Args[1:])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

// openSource resolves a workload name through the registry.
func openSource(name string, cores int, seed uint64, scale, intensity float64) workload.Source {
	src, err := workload.Open(name, workload.Config{
		Cores: cores, Seed: seed, Scale: scale, Intensity: intensity,
	})
	if err != nil {
		fatal(err)
	}
	return src
}

// sample is the default mode: dump or summarize a workload stream.
func sample(args []string) {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	var (
		name    = fs.String("workload", "pagerank", "workload name (or file:<path>)")
		cores   = fs.Int("cores", 0, "core count (0 = 16, or a trace file's recorded count)")
		n       = fs.Int("n", 20, "events to generate (per summary, total)")
		core    = fs.Int("core", 0, "core whose stream to sample")
		seed    = fs.Uint64("seed", 1, "generator seed")
		summary = fs.Bool("summary", false, "print aggregate statistics instead of events")
		scale   = fs.Float64("scale", 1.0/16, "footprint scale factor (matches the simulator's default)")
	)
	fs.Parse(args)
	if *cores == 0 && !strings.HasPrefix(*name, workload.FilePrefix) {
		*cores = 16
	}

	w := openSource(*name, *cores, *seed, *scale, 1.0)
	if *summary {
		summarize(w, *name, *core, *n)
		return
	}
	dump(w, *core, *n)
}

// record captures a workload into a .btrc trace file.
func record(args []string) {
	fs := flag.NewFlagSet("tracegen record", flag.ExitOnError)
	var (
		name      = fs.String("workload", "", "workload name to record")
		out       = fs.String("o", "", "output trace file path")
		cores     = fs.Int("cores", 0, "core count (0 = 16, or a trace file's recorded count)")
		seed      = fs.Uint64("seed", 1, "generator seed")
		events    = fs.Uint64("events", 1_000_000, "events to record per core")
		scale     = fs.Float64("scale", 1.0/16, "footprint scale factor")
		intensity = fs.Float64("intensity", 1.0, "MemRatio multiplier")
	)
	fs.Parse(args)
	if *name == "" || *out == "" {
		fatal(fmt.Errorf("record needs -workload and -o"))
	}
	if *cores == 0 && !strings.HasPrefix(*name, workload.FilePrefix) {
		*cores = 16
	}
	cfg := workload.Config{Cores: *cores, Seed: *seed, Scale: *scale, Intensity: *intensity}
	if err := workload.Record(*out, *name, cfg, *events); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	// Report from the file itself, not the flags: a source may resolve
	// to a different shape than requested (e.g. recording a trace file).
	r, err := tracefile.Open(*out)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	fmt.Printf("recorded %s: %d events × %d cores → %s (%d bytes, %.2f B/event)\n",
		r.Name(), *events, r.Cores(), *out, st.Size(), float64(st.Size())/float64(r.TotalEvents()))
}

// dump prints n raw events of one core's stream, stopping at the
// first read that fails rather than printing its zero event.
func dump(w workload.Source, core, n int) {
	for i := 0; i < n; i++ {
		ev := w.Next(core)
		checkStream(w)
		op := "R"
		if ev.Write {
			op = "W"
		}
		fmt.Printf("%6d  gap=%-5d %s %#014x  page=%#x line=%d\n",
			i, ev.Gap, op, uint64(ev.Addr), mem.PageNum(ev.Addr), mem.LineInPage(ev.Addr))
	}
}

// inspect dumps a trace file's header and chunk index.
func inspect(args []string) {
	fs := flag.NewFlagSet("tracegen inspect", flag.ExitOnError)
	file := fs.String("file", "", "trace file to inspect")
	fs.Parse(args)
	if *file == "" {
		fatal(fmt.Errorf("inspect needs -file"))
	}
	r, err := tracefile.Open(*file)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	st, err := os.Stat(*file)
	if err != nil {
		fatal(err)
	}
	m := r.Meta()
	fmt.Printf("file       %s (%d bytes, format v%d)\n", *file, st.Size(), tracefile.Version)
	fmt.Printf("workload   %s\n", m.Name)
	fmt.Printf("cores      %d\n", m.Cores)
	fmt.Printf("shared     %v\n", m.Shared)
	fmt.Printf("footprint  %.1f MB\n", float64(m.Footprint)/(1<<20))
	fmt.Printf("events     %d (%.2f B/event)\n", r.TotalEvents(), float64(st.Size())/float64(r.TotalEvents()))
	chunks := r.Chunks()
	fmt.Printf("chunks     %d\n", len(chunks))
	perCore := make(map[int]struct {
		chunks int
		events uint64
		bytes  uint64
	})
	for _, c := range chunks {
		pc := perCore[c.Core]
		pc.chunks++
		pc.events += uint64(c.Events)
		pc.bytes += uint64(c.PayloadLen)
		perCore[c.Core] = pc
	}
	ids := make([]int, 0, len(perCore))
	for id := range perCore {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pc := perCore[id]
		fmt.Printf("  core %-3d %8d events in %4d chunks, %8d payload bytes (%.2f B/event)\n",
			id, pc.events, pc.chunks, pc.bytes, float64(pc.bytes)/float64(pc.events))
	}
	if err := r.Verify(); err != nil {
		fatal(err)
	}
	fmt.Println("verify     ok (all chunk checksums and encodings valid)")
}

// summarize prints the aggregate stream statistics of one core.
func summarize(w workload.Source, label string, core, n int) {
	pages := map[uint64]int{}
	lines := map[uint64]int{}
	writes, gaps, seq := 0, 0, 0
	var prev mem.Addr
	for i := 0; i < n; i++ {
		ev := w.Next(core)
		pages[mem.PageNum(ev.Addr)]++
		lines[mem.LineNum(ev.Addr)]++
		gaps += ev.Gap
		if ev.Write {
			writes++
		}
		if i > 0 && ev.Addr == prev+mem.LineBytes {
			seq++
		}
		prev = ev.Addr
	}
	checkStream(w)
	counts := make([]int, 0, len(pages))
	for _, c := range pages {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	topDecile, total := 0, 0
	for i, c := range counts {
		total += c
		if i < len(counts)/10 {
			topDecile += c
		}
	}

	fmt.Printf("workload           %s (core %d, %d events)\n", label, core, n)
	fmt.Printf("footprint declared %.1f MB\n", float64(w.Footprint())/(1<<20))
	fmt.Printf("pages touched      %d (%.1f MB)\n", len(pages), float64(len(pages)*mem.PageBytes)/(1<<20))
	fmt.Printf("lines touched      %d\n", len(lines))
	fmt.Printf("mean gap           %.1f instr (memratio %.4f)\n",
		float64(gaps)/float64(n), float64(n)/float64(gaps+n))
	fmt.Printf("write fraction     %.2f\n", float64(writes)/float64(n))
	fmt.Printf("sequential frac    %.2f\n", float64(seq)/float64(n))
	fmt.Printf("top-decile pages   %.0f%% of visits\n", 100*float64(topDecile)/float64(total))
}

// checkStream fails loudly when a replayed source hit a decode error
// or ran out of recorded events (synthetic sources have no error state
// and pass through).
func checkStream(w workload.Source) {
	if e, ok := w.(interface{ Err() error }); ok {
		if err := e.Err(); err != nil {
			fatal(err)
		}
	}
}
