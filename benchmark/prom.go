package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one series line of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promSet is one parsed /metrics scrape.
type promSet []promSample

// parseProm parses the Prometheus text format as rtled renders it: comment
// and blank lines are skipped, every other line is `name value` or
// `name{k="v",...} value`. A malformed line is an error — a scrape the
// benchmark cannot read must not silently become zeros.
func parseProm(r io.Reader) (promSet, error) {
	var out promSet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	var s promSample
	rest := line
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else if line[i] == ' ' {
		s.Name, rest = line[:i], line[i:]
	} else {
		s.Name = line[:i]
		s.Labels = make(map[string]string)
		rest = line[i+1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=\"")
			if eq <= 0 {
				return s, fmt.Errorf("bad label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					if rest[j] == 'n' {
						val.WriteByte('\n')
					} else {
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.Labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// get returns the series of name whose label set is exactly the given
// key/value pairs (no pairs: the unlabelled series); 0 when absent.
func (p promSet) get(name string, kv ...string) float64 {
	var sum float64
next:
	for i := range p {
		if p[i].Name != name || len(p[i].Labels) != len(kv)/2 {
			continue
		}
		for j := 0; j+1 < len(kv); j += 2 {
			if p[i].Labels[kv[j]] != kv[j+1] {
				continue next
			}
		}
		sum += p[i].Value
	}
	return sum
}

// sumBy sums every series of name that carries the label key (any value).
// rtled renders per-shard families as an unlabelled merged line followed by
// {shard="k"} lines; sumBy(name, "shard") adds only the latter, so the
// merged line is never counted twice.
func (p promSet) sumBy(name, key string) float64 {
	var sum float64
	for i := range p {
		if p[i].Name != name {
			continue
		}
		if _, ok := p[i].Labels[key]; ok {
			sum += p[i].Value
		}
	}
	return sum
}
