package objects

import "rings/internal/telemetry"

// Metrics are the rings_objects_* telemetry series of one object layer.
// A Directory drives every series of the one in its Config itself, and
// reports Stats from them; the sharded fleet leaves the per-shard
// directories on private registries (their counts are the per_shard
// rows of its report) and drives one fleet-level Metrics from its own
// routing layer (plus the cross-shard counter it registers into the
// same registry).
type Metrics struct {
	// Reg owns the series below; compose it into a /metrics page with
	// telemetry.Group.
	Reg *telemetry.Registry

	Lookups     *telemetry.Counter
	NotFound    *telemetry.Counter
	Publishes   *telemetry.Counter
	Unpublishes *telemetry.Counter
	Republishes *telemetry.Counter

	Objects  *telemetry.Gauge
	Replicas *telemetry.Gauge
}

// NewMetrics registers the object-layer series into a fresh registry.
func NewMetrics() *Metrics {
	r := telemetry.NewRegistry()
	return &Metrics{
		Reg:         r,
		Lookups:     r.Counter("rings_objects_lookups_total", "Object lookups resolved."),
		NotFound:    r.Counter("rings_objects_lookup_not_found_total", "Lookups naming an object with no published replicas."),
		Publishes:   r.Counter("rings_objects_publishes_total", "Replica publish operations accepted."),
		Unpublishes: r.Counter("rings_objects_unpublishes_total", "Replica unpublish operations accepted."),
		Republishes: r.Counter("rings_objects_republishes_total", "Replicas moved off departing nodes by the churn repair hook."),
		Objects:     r.Gauge("rings_objects", "Objects currently published."),
		Replicas:    r.Gauge("rings_objects_replicas", "Replicas currently placed across all objects."),
	}
}
