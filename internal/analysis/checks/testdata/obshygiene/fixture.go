// Fixture for the obshygiene analyzer. It uses the real internal/obs
// and log/slog packages so the receiver-type detection matches
// production call sites.
package fixture

import (
	"log/slog"

	"drnet/internal/obs"
	"drnet/internal/wideevent"
)

func metricNames() {
	_ = obs.Default.Counter("drevald_requests_total")    // server prefix: fine
	_ = obs.Default.Gauge("obs_queue_depth")             // obs layer prefix: fine
	_ = obs.Default.Counter("requests_total")            // want "violates the naming contract"
	_ = obs.Default.Histogram("Bad-Name", nil)           // want "violates the naming contract"
	obs.Default.Help("widget_total", "how many widgets") // want "violates the naming contract"
}

func emptyStrings() {
	_ = obs.Default.Counter("")                           // want "empty metric name"
	obs.Default.Help("", "described but nameless")        // want "empty metric name"
	obs.Default.Help("obs_good_total", "")                // want "empty help string"
	_ = obs.Default.Counter("drevald_bias_reports_total") // bias family: fine
}

func logging(l *slog.Logger) {
	l.Info("msg", "key", 1)     // paired: fine
	l.Info("msg", "key")        // want "1 key=value args \\(odd\\)"
	l.Error("msg", "a", 1, "b") // want "3 key=value args \\(odd\\)"
	_ = l.With("k", "v")        // paired: fine
}

func kvPassthrough(l *slog.Logger, kv []any) {
	l.Info("msg", kv...) // spread arity is unknowable statically: fine
}

func spans() {
	sp := obs.StartSpan("phase")
	defer sp.End() // deferred at start: fine

	sp2 := obs.StartSpan("other")
	use(sp2)
	sp2.End() // want "Span.End not deferred"
}

func deferredClosure() {
	sp := obs.StartSpan("wrapped")
	defer func() {
		sp.End() // inside the deferred closure: fine
	}()
}

func allowedInline() {
	sp := obs.StartSpan("timed")
	//lint:allow obshygiene the returned duration is the recorded wall time
	d := sp.End()
	_ = d
}

func use(*obs.Span) {}

func eventAnnotations(b *wideevent.Builder, key string) {
	b.Annotate("retryCount", "3")  // lowerCamel: fine
	b.Annotate("cacheHit", "true") // lowerCamel: fine
	b.Annotate("snake_case", "v")  // want "violates the lowerCamel contract"
	b.Annotate("UpperCamel", "v")  // want "violates the lowerCamel contract"
	b.Annotate("kebab-case", "v")  // want "violates the lowerCamel contract"
	b.Annotate("", "v")            // want "empty wide-event field name"
	b.Annotate(key, "v")           // non-constant name is unknowable statically: fine
	b.SetPolicy("constant:c")      // canonical setters are not Annotate: fine
}
