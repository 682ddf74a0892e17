package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promScrape is one Prometheus text exposition, keyed by the series exactly
// as exposed: `name` or `name{labels}`.
type promScrape map[string]float64

// parseProm parses the text exposition format coverd's /metrics serves.
// Comment and blank lines are skipped; anything else must be a series
// followed by its value.
func parseProm(text string) (promScrape, error) {
	out := make(promScrape)
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values never contain spaces in coverd's output, so the
		// value is the last space-separated field.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", i+1, err)
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	return out, nil
}

// add sums another scrape into p (several coverd processes of one
// workload read as one).
func (p promScrape) add(q promScrape) {
	for k, v := range q {
		p[k] += v
	}
}

// delta returns after−before for one series; a series absent from both is
// 0, absent from one only is an error (a family that appeared or vanished
// mid-window means the scrapes are not comparable).
func delta(before, after promScrape, series string) (float64, error) {
	b, okB := before[series]
	a, okA := after[series]
	if okA != okB {
		return 0, fmt.Errorf("metrics: series %s present in only one scrape", series)
	}
	return a - b, nil
}

// histMean returns the mean of the observations a histogram family
// received between two scrapes, ΔSum/ΔCount, and ΔCount. The bucket
// bounds coverd uses are a factor 2–2.5 apart, too coarse for a median, so
// the window mean is what the per-layer report carries.
func histMean(before, after promScrape, family string) (mean, count float64, err error) {
	dSum, err := delta(before, after, family+"_sum")
	if err != nil {
		return 0, 0, err
	}
	dCount, err := delta(before, after, family+"_count")
	if err != nil {
		return 0, 0, err
	}
	return ratio(dSum, dCount), dCount, nil
}
