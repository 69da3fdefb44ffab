package main

import (
	"context"
	"time"

	"fsr"
)

// The benchmark opens spans around its calls into each layer of the
// program, on a context that carries an fsr.Tracer in a traced phase and
// none in an untraced one, where fsr.StartSpan costs nothing. The program's
// calls never get that context, so a traced phase makes the same calls as
// an untraced one plus the benchmark's spans. The trace is written in the
// trace-event format Perfetto loads. Durations are measured here rather
// than read back from the tracer, so both kinds of phase time the same way.

// span is one benchmark span with its own clock.
type span struct {
	ctx   context.Context // carries the span, for children
	s     *fsr.Span
	start time.Time
}

// begin opens a span named name as a child of whatever span ctx carries.
func begin(ctx context.Context, name string) span {
	c, s := fsr.StartSpan(ctx, name)
	return span{ctx: c, s: s, start: time.Now()}
}

// end closes the span and returns its duration in milliseconds.
func (s span) end() float64 {
	d := time.Since(s.start)
	s.s.End()
	return ms(d)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
