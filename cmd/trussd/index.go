// The index subcommand: offline tooling for indexfile snapshots — the
// memory-mapped format `trussd serve -data-dir` persists and restarts
// from. `build` freezes a graph file into an index snapshot without
// running a server, `inspect` prints a snapshot's header and section
// table, and `verify` runs the full checksum sweep that the serving
// open path (deliberately) skips.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	truss "repro"
)

func indexMain(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: trussd index build|inspect|verify ...")
	}
	switch args[0] {
	case "build":
		return indexBuild(args[1:])
	case "inspect":
		return indexInspect(args[1:])
	case "verify":
		return indexVerify(args[1:])
	default:
		return fmt.Errorf("unknown index subcommand %q (want build, inspect, or verify)", args[0])
	}
}

// indexBuild decomposes a graph file and writes the index snapshot —
// the same artifact a serving compaction produces, minus the server.
// Useful for pre-building snapshots on a beefy machine and shipping
// them to serving hosts, which then map them in O(1).
func indexBuild(args []string) error {
	fs := flag.NewFlagSet("index build", flag.ContinueOnError)
	in := fs.String("in", "", "input graph file (SNAP text, or .bin)")
	out := fs.String("out", "", "output indexfile path (e.g. index.tix)")
	source := fs.String("source", "", "provenance label stored in the file (default: the input path)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("-in and -out are required")
	}
	if *source == "" {
		*source = *in
	}
	g, err := truss.LoadGraph(*in)
	if err != nil {
		return err
	}
	start := time.Now()
	d, err := truss.Run(context.Background(), truss.FromGraph(g))
	if err != nil {
		return err
	}
	res, _ := truss.AsInMemory(d)
	ix := truss.BuildIndex(res)
	buildDur := time.Since(start)
	start = time.Now()
	if err := truss.WriteIndexFile(*out, ix, *source); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("built %s: n=%d m=%d kmax=%d (%d bytes, decompose+index %s, write %s)\n",
		*out, ix.Graph().NumVertices(), ix.NumEdges(), ix.KMax(),
		st.Size(), buildDur.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	return nil
}

// indexInspect maps a snapshot and prints its identity and section
// table. It runs only the open-time validation (preamble checksum plus
// structural invariants), so inspecting a terabyte file is instant.
func indexInspect(args []string) error {
	path, err := indexPathArg("inspect", args)
	if err != nil {
		return err
	}
	f, err := truss.OpenIndexFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ix, meta := f.Index(), f.Meta()
	fmt.Printf("file:          %s\n", f.Path())
	fmt.Printf("format:        v%d\n", f.FormatVersion())
	fmt.Printf("mapped bytes:  %d\n", f.MappedBytes())
	fmt.Printf("source:        %s\n", meta.Source)
	fmt.Printf("graph version: %d\n", meta.GraphVersion)
	if meta.CreatedUnixNano != 0 {
		fmt.Printf("created:       %s\n", time.Unix(0, meta.CreatedUnixNano).UTC().Format(time.RFC3339))
	}
	fmt.Printf("n=%d m=%d kmax=%d\n", ix.Graph().NumVertices(), ix.NumEdges(), ix.KMax())
	fmt.Printf("%-4s %-10s %12s %12s %10s\n", "id", "section", "offset", "bytes", "crc32c")
	for _, s := range f.Sections() {
		fmt.Printf("%-4d %-10s %12d %12d %10x\n", s.ID, s.Name, s.Off, s.Len, s.CRC)
	}
	return nil
}

// indexVerify opens a snapshot and runs the full data-checksum sweep —
// every section CRC recomputed, every padding byte checked. This is the
// integrity guarantee the O(kmax) serving open path trades away; run it
// before trusting a snapshot of uncertain provenance.
func indexVerify(args []string) error {
	path, err := indexPathArg("verify", args)
	if err != nil {
		return err
	}
	f, err := truss.OpenIndexFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	if err := f.Verify(); err != nil {
		return err
	}
	fmt.Printf("%s: ok (%d bytes verified in %s)\n",
		f.Path(), f.MappedBytes(), time.Since(start).Round(time.Microsecond))
	return nil
}

// indexPathArg extracts the single positional snapshot path.
func indexPathArg(sub string, args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: trussd index %s <index.tix>", sub)
	}
	return args[0], nil
}
