package main

import (
	"encoding/json"
	"strconv"
	"time"
)

// calibRecord is one row of the calibration document.
type calibRecord struct {
	ID     int       `json:"id"`
	Name   string    `json:"name"`
	Tags   []string  `json:"tags"`
	Values []float64 `json:"values"`
	Edges  [][]int   `json:"edges"`
}

// calibDoc is a fixed document whose JSON round trip is the host
// calibration kernel: standard library only, the same kind of work the
// solve workloads' request decode does, independent of every line of
// distcover.
var calibDoc = func() []calibRecord {
	doc := make([]calibRecord, 2000)
	for i := range doc {
		doc[i] = calibRecord{
			ID:     i,
			Name:   "record-" + strconv.Itoa(i),
			Tags:   []string{"a", "bb", strconv.Itoa(i % 97)},
			Values: []float64{float64(i) / 7, float64(i*i) / 13, 1e-3 * float64(i)},
			Edges:  [][]int{{i, i + 1, i + 2}, {i * 3 % 1009, i * 7 % 1013, i * 11 % 1019}},
		}
	}
	return doc
}()

// calibrate times the kernel calibReps times and returns the median in ms.
// Comparing it before and after a run, and across runs, shows slow phases
// of the host next to the numbers they distort.
func calibrate() float64 {
	const calibReps = 7
	var ts []float64
	for i := 0; i < calibReps; i++ {
		t0 := time.Now()
		raw, err := json.Marshal(calibDoc)
		if err != nil {
			panic(err) // a fixed document of plain types always encodes
		}
		var back []calibRecord
		if err := json.Unmarshal(raw, &back); err != nil {
			panic(err)
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}
