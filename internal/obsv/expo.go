package obsv

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of WritePrometheus output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name=value pair on a series.
type Label struct {
	Name  string
	Value string
}

// SeriesSnapshot is one series' current state: Value for counters and
// gauges, Hist for histograms.
type SeriesSnapshot struct {
	Labels []Label
	Value  float64
	Hist   *HistogramSnapshot
}

// FamilySnapshot is one family's current state.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   MetricType
	Series []SeriesSnapshot
}

// Snapshot copies the whole registry, families sorted by name, series in
// creation order.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.sortedFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		if f.fn != nil {
			fs.Series = []SeriesSnapshot{{Value: f.fn()}}
			out = append(out, fs)
			continue
		}
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		for _, key := range keys {
			s := f.series[key]
			ss := SeriesSnapshot{}
			for i, lv := range s.labelValues {
				ss.Labels = append(ss.Labels, Label{Name: f.labels[i], Value: lv})
			}
			switch {
			case s.counter != nil:
				ss.Value = float64(s.counter.Value())
			case s.gauge != nil:
				ss.Value = float64(s.gauge.Value())
			case s.hist != nil:
				h := s.hist.Snapshot()
				ss.Hist = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, `\"`+"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// writeLabels writes {a="x",b="y"} (nothing when empty). extra, when
// non-empty, appends one more pair (used for le on histogram buckets).
func writeLabels(w *bufio.Writer, labels []Label, extraName, extraValue string) {
	if len(labels) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(l.Name)
		w.WriteString(`="`)
		w.WriteString(escapeLabelValue(l.Value))
		w.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(extraValue)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatFloat renders a sample value the way Prometheus expects: plain
// integers stay integral, everything else gets shortest-round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Histogram bucket bounds, sums and quantiles are
// expressed in seconds, per convention; the underlying nanosecond buckets
// map to le bounds of (2^i - 1)/1e9.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(fam.Name)
			bw.WriteByte(' ')
			bw.WriteString(strings.ReplaceAll(fam.Help, "\n", " "))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(fam.Name)
		bw.WriteByte(' ')
		bw.WriteString(string(fam.Type))
		bw.WriteByte('\n')
		for _, s := range fam.Series {
			if s.Hist == nil {
				bw.WriteString(fam.Name)
				writeLabels(bw, s.Labels, "", "")
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(s.Value))
				bw.WriteByte('\n')
				continue
			}
			var cum int64
			for i, n := range s.Hist.Buckets {
				cum += n
				if n == 0 && i != len(s.Hist.Buckets)-1 {
					continue // skip empty interior buckets; cumulation carries them
				}
				_, hi := bucketBounds(i)
				bw.WriteString(fam.Name)
				bw.WriteString("_bucket")
				writeLabels(bw, s.Labels, "le", formatFloat(float64(hi)/1e9))
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(cum, 10))
				bw.WriteByte('\n')
			}
			// A snapshot taken mid-Observe can see a bucket increment
			// before the count increment; keep the +Inf sample monotonic.
			inf := s.Hist.Count
			if cum > inf {
				inf = cum
			}
			bw.WriteString(fam.Name)
			bw.WriteString("_bucket")
			writeLabels(bw, s.Labels, "le", "+Inf")
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(inf, 10))
			bw.WriteByte('\n')
			bw.WriteString(fam.Name)
			bw.WriteString("_sum")
			writeLabels(bw, s.Labels, "", "")
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(float64(s.Hist.Sum) / 1e9))
			bw.WriteByte('\n')
			bw.WriteString(fam.Name)
			bw.WriteString("_count")
			writeLabels(bw, s.Labels, "", "")
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(s.Hist.Count, 10))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
