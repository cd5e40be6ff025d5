package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// runFile is what compare reads from a saved run: the CPU count it ran with
// and its metrics.
type runFile struct {
	cpus    int
	metrics map[string]metric
}

// readRunFile reads a saved perfbench standard output (header line plus the
// result line), or a benchjson file, which records its CPU count as "cpus".
func readRunFile(path string) (runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, err
	}
	defer f.Close()
	out := runFile{cpus: -1}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var whole []byte
	for sc.Scan() {
		line := sc.Bytes()
		whole = append(append(whole, line...), '\n')
		var v struct {
			Header *struct {
				Nproc int `json:"nproc"`
			} `json:"header"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(line, &v) != nil {
			continue
		}
		if v.Header != nil {
			out.cpus = v.Header.Nproc
		}
		if v.Metrics != nil {
			out.metrics = v.Metrics
		}
	}
	if err := sc.Err(); err != nil {
		return runFile{}, err
	}
	if out.cpus < 0 {
		var bj struct {
			CPUs *int `json:"cpus"`
		}
		if json.Unmarshal(whole, &bj) == nil && bj.CPUs != nil {
			out.cpus = *bj.CPUs
		}
	}
	if out.cpus < 0 {
		return runFile{}, fmt.Errorf("%s: no CPU count recorded", path)
	}
	return out, nil
}

// compareMain prints new/base for every metric two saved runs share. It
// refuses, with exit code 3, runs whose CPU counts differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE NEW")
		return 2
	}
	base, err := readRunFile(args[0])
	if err == nil {
		var cur runFile
		if cur, err = readRunFile(args[1]); err == nil {
			return compareRuns(base, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func compareRuns(base, cur runFile) int {
	if base.cpus != cur.cpus {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare a run on %d CPUs with one on %d CPUs\n", base.cpus, cur.cpus)
		return 3
	}
	names := make([]string, 0, len(cur.metrics))
	for n := range cur.metrics {
		if _, ok := base.metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		b, c := base.metrics[n], cur.metrics[n]
		fmt.Printf("%-44s %14.4f %14.4f %-8s x%.3f\n", n, b.Value, c.Value, c.Unit, ratio(c.Value, b.Value))
	}
	return 0
}
