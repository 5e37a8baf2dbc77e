package dftp

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"freezetag/internal/adversary/wander"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

// Faults is the wire-level fault specification shared by the HTTP API, the
// CLIs, and the experiment sweeps: a named fault kind plus its parameters,
// all deterministic under Seed. It is the serializable face of sim.FaultPlan,
// kept in this layer so the service and tools never touch engine types.
type Faults struct {
	// Kind names the failure model: "crash-stop", "crash-recovery",
	// "wake-drop", "wake-dup", or "byzantine".
	Kind string `json:"kind"`
	// Rate is the per-robot crash probability (crash kinds) or per-wake
	// fault probability (wake kinds), in [0, 1]. Ignored by byzantine.
	Rate float64 `json:"rate,omitempty"`
	// Seed roots every fault draw; equal seeds give identical fault
	// sequences.
	Seed int64 `json:"seed,omitempty"`
	// Byzantine is the number of adversary-controlled robots (kind
	// "byzantine" only, ≥ 1).
	Byzantine int `json:"byzantine,omitempty"`
	// Downtime scales crash-recovery outages; 0 derives a default from the
	// instance tuple (≈ ℓ).
	Downtime float64 `json:"downtime,omitempty"`
	// Repair arms the self-stabilizing wake-tree repair layer
	// (wakeup.InstallRepair).
	Repair bool `json:"repair,omitempty"`
}

// simKind maps the wire spelling to the engine's kind.
func (f *Faults) simKind() (sim.FaultKind, bool) {
	switch f.Kind {
	case "crash-stop":
		return sim.FaultCrashStop, true
	case "crash-recovery":
		return sim.FaultCrashRecovery, true
	case "wake-drop":
		return sim.FaultWakeDrop, true
	case "wake-dup":
		return sim.FaultWakeDup, true
	case "byzantine":
		return sim.FaultByzantine, true
	}
	return 0, false
}

// Validate checks the specification. A nil receiver (no faults requested) is
// valid. Malformed numeric fields — NaN rates, negative rates, rates above
// one, non-finite downtimes — are request errors, caught here so the serving
// tier can 400 them before any work happens.
func (f *Faults) Validate() error {
	if f == nil {
		return nil
	}
	kind, ok := f.simKind()
	if !ok {
		return fmt.Errorf("dftp: unknown fault kind %q (have crash-stop, crash-recovery, wake-drop, wake-dup, byzantine)", f.Kind)
	}
	if !(f.Rate >= 0 && f.Rate <= 1) { // rejects NaN too
		return fmt.Errorf("dftp: fault rate must be in [0, 1], got %g", f.Rate)
	}
	if math.IsNaN(f.Downtime) || math.IsInf(f.Downtime, 0) || f.Downtime < 0 {
		return fmt.Errorf("dftp: fault downtime must be finite and ≥ 0, got %g", f.Downtime)
	}
	if kind == sim.FaultByzantine {
		if f.Byzantine < 1 {
			return fmt.Errorf("dftp: byzantine faults need byzantine ≥ 1, got %d", f.Byzantine)
		}
	} else if f.Byzantine != 0 {
		return fmt.Errorf("dftp: byzantine count is only valid for kind \"byzantine\"")
	}
	return nil
}

// Canon returns the deterministic canonical encoding of the specification —
// the faults line of the dftp-request/v4 content address, also used as the
// fault component of in-process memo keys. Floats encode as every float of
// the request hash does (instance.AppendCanonFloat). Empty for nil (the
// fault-free request, which must keep its fault-free hash).
func (f *Faults) Canon() string {
	if f == nil {
		return ""
	}
	b := make([]byte, 0, 96)
	b = append(b, "kind="...)
	b = append(b, f.Kind...)
	b = append(b, ";rate="...)
	b = instance.AppendCanonFloat(b, f.Rate)
	b = append(b, ";seed="...)
	b = strconv.AppendInt(b, f.Seed, 10)
	b = append(b, ";byz="...)
	b = strconv.AppendInt(b, int64(f.Byzantine), 10)
	b = append(b, ";down="...)
	b = instance.AppendCanonFloat(b, f.Downtime)
	b = append(b, ";repair="...)
	if f.Repair {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	return string(b)
}

// ParseFaults parses a fault specification as the CLIs take it. An empty
// spec is fault-free (nil); a leading '{' is the service's JSON faults
// object; anything else is the compact form
// "<kind>[<sep>rate=R][<sep>seed=S][<sep>byz=K][<sep>down=D][<sep>repair[=bool]]",
// whose options are separated by sep. The result is validated.
func ParseFaults(spec, sep string) (*Faults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	f := &Faults{}
	if strings.HasPrefix(spec, "{") {
		if err := json.Unmarshal([]byte(spec), f); err != nil {
			return nil, err
		}
	} else {
		parts := strings.Split(spec, sep)
		f.Kind = strings.TrimSpace(parts[0])
		for _, part := range parts[1:] {
			key, val, hasVal := strings.Cut(strings.TrimSpace(part), "=")
			var err error
			switch key {
			case "rate":
				f.Rate, err = strconv.ParseFloat(val, 64)
			case "seed":
				f.Seed, err = strconv.ParseInt(val, 10, 64)
			case "byz":
				f.Byzantine, err = strconv.Atoi(val)
			case "down":
				f.Downtime, err = strconv.ParseFloat(val, 64)
			case "repair":
				f.Repair = true
				if hasVal {
					f.Repair, err = strconv.ParseBool(val)
				}
			default:
				return nil, fmt.Errorf("unknown fault option %q (have rate, seed, byz, down, repair)", key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault option %q: %v", key, err)
			}
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Plan compiles the wire specification into the engine's fault plan for a
// run of inst under tup: crash odometer draws scale with ρ (a robot's work
// is proportional to its disk), downtimes default to the ℓ travel scale, and
// Byzantine robots wander the instance's bounding region via the adversary
// package's deterministic program. Nil in, nil out.
func (f *Faults) Plan(m geom.Metric, in *instance.Instance, tup Tuple) *sim.FaultPlan {
	if f == nil {
		return nil
	}
	kind, _ := f.simKind()
	plan := &sim.FaultPlan{
		Kind:      kind,
		Seed:      f.Seed,
		Rate:      f.Rate,
		CrashDist: math.Max(1, tup.Rho),
		Downtime:  f.Downtime,
		Byzantine: f.Byzantine,
	}
	if plan.Downtime <= 0 {
		plan.Downtime = math.Max(1, tup.Ell)
	}
	if kind == sim.FaultByzantine {
		region := geom.Rect{Min: in.Source, Max: in.Source}
		for _, p := range in.Points {
			region.Min.X = math.Min(region.Min.X, p.X)
			region.Min.Y = math.Min(region.Min.Y, p.Y)
			region.Max.X = math.Max(region.Max.X, p.X)
			region.Max.Y = math.Max(region.Max.Y, p.Y)
		}
		plan.WanderPath = wander.Program(f.Seed, region, 4)
	}
	return plan
}
