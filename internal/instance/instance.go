// Package instance defines dFTP problem instances (a source plus a sleeping
// point set) and generators for the workload families used across the test
// and benchmark suites: random ℓ-connected swarms, cluster chains, grids,
// the Theorem 6 rectilinear-path construction, and the Theorem 2 disk-grid
// layout.
package instance

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"

	"freezetag/internal/diskgraph"
	"freezetag/internal/geom"
)

// Profile is one robot's capability profile. Speed scales travel time
// (moving distance δ takes time δ/Speed); Capacity is the robot's private
// energy budget, with ≤ 0 meaning "inherit the uniform budget". The
// homogeneous model is Profile{Speed: 1, Capacity: 0} for every robot.
type Profile struct {
	Speed    float64 `json:"speed"`
	Capacity float64 `json:"capacity,omitempty"`
}

// Instance is one dFTP problem: a source position and the initial positions
// of the sleeping robots. Profiles, when non-empty, pairs Points[i] with the
// capability profile of robot i+1 (the source is always unit-speed); an
// empty Profiles means the homogeneous unit-speed model every layer
// defaulted to before heterogeneity existed.
type Instance struct {
	Name     string       `json:"name"`
	Source   geom.Point   `json:"source"`
	Points   []geom.Point `json:"points"`
	Profiles []Profile    `json:"profiles,omitempty"`
}

// N returns the number of sleeping robots.
func (in *Instance) N() int { return len(in.Points) }

// Heterogeneous reports whether the instance carries per-robot profiles.
func (in *Instance) Heterogeneous() bool { return len(in.Profiles) > 0 }

// MaxCoord bounds every coordinate of an instance. At 2³¹ the simulator's
// unit Look cells stop fitting spatial.Grid's int32 key halves; below it,
// every distance, ℓ*, ρ* and cell range the pipeline computes stays finite.
const MaxCoord = 1 << 31

// Validate checks that the instance lies inside the model the paper's
// bounds are stated in. The source and every robot must sit at finite
// coordinates within ±MaxCoord; the error names the first robot that does
// not, numbered as the simulator numbers them (the source is robot 0). The
// profile list must be empty or exactly one profile per point, every speed
// finite and > 0, and no capacity NaN. Negative capacities are legal (they
// mean "inherit the uniform budget", like a zero) but NaN is always a
// request error.
func (in *Instance) Validate() error {
	if !inBounds(in.Source) {
		return fmt.Errorf("instance: source at (%g, %g): coordinates must be finite and within ±2³¹",
			in.Source.X, in.Source.Y)
	}
	for i, p := range in.Points {
		if !inBounds(p) {
			return fmt.Errorf("instance: robot %d at (%g, %g): coordinates must be finite and within ±2³¹",
				i+1, p.X, p.Y)
		}
	}
	if len(in.Profiles) == 0 {
		return nil
	}
	if len(in.Profiles) != len(in.Points) {
		return fmt.Errorf("instance: %d profiles for %d points (need one per sleeping robot)",
			len(in.Profiles), len(in.Points))
	}
	for i, p := range in.Profiles {
		if !(p.Speed > 0) || math.IsInf(p.Speed, 1) { // rejects NaN, ≤ 0, +Inf
			return fmt.Errorf("instance: profile %d: speed must be finite and > 0, got %g", i, p.Speed)
		}
		if math.IsNaN(p.Capacity) {
			return fmt.Errorf("instance: profile %d: capacity must not be NaN", i)
		}
	}
	return nil
}

// inBounds reports whether both coordinates of p are within ±MaxCoord,
// which NaN never is.
func inBounds(p geom.Point) bool {
	return math.Abs(p.X) <= MaxCoord && math.Abs(p.Y) <= MaxCoord
}

// MinSpeed returns the slowest speed across the swarm including the
// unit-speed source: exactly 1 for homogeneous instances, and the factor by
// which worst-case travel-time bounds must be inflated for heterogeneous
// ones.
func (in *Instance) MinSpeed() float64 {
	min := 1.0
	for _, p := range in.Profiles {
		if p.Speed > 0 && p.Speed < min {
			min = p.Speed
		}
	}
	return min
}

// ParamsIn computes the exact (ρ*, ℓ*, ξ) of the instance under metric m:
// the same point set generally has different parameters — and different
// admissible tuples — per metric.
func (in *Instance) ParamsIn(m geom.Metric) diskgraph.Params {
	return diskgraph.ComputeParamsIn(m, in.Source, in.Points)
}

// MarshalCanonical encodes the instance as indented JSON with deterministic
// field order (name, source, points, then profiles when present — the
// struct declaration order, which encoding/json preserves; empty Profiles
// are omitted, so homogeneous instances marshal exactly as they always
// have). Equal instances always marshal to equal bytes; the canonical
// request hashes in canonical.go rely on this stability.
func (in *Instance) MarshalCanonical() ([]byte, error) {
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("instance: marshal: %w", err)
	}
	return data, nil
}

// Save writes the instance as canonical JSON to path.
func (in *Instance) Save(path string) error {
	data, err := in.MarshalCanonical()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("instance: write %s: %w", path, err)
	}
	return nil
}

// Load reads a JSON instance from path.
func Load(path string) (*Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("instance: read %s: %w", path, err)
	}
	var in Instance
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("instance: parse %s: %w", path, err)
	}
	return &in, nil
}

// RandomWalk generates n points by a random walk from the source with steps
// uniform in [step/2, step] and uniform directions. The result is
// (step)-connected by construction (every consecutive pair is within step),
// giving dense, organic swarms.
func RandomWalk(rng *rand.Rand, n int, step float64) *Instance {
	pts := make([]geom.Point, n)
	cur := geom.Origin
	for i := range pts {
		d := step/2 + rng.Float64()*step/2
		ang := rng.Float64() * 2 * math.Pi
		cur = cur.Add(geom.Pt(d*math.Cos(ang), d*math.Sin(ang)))
		pts[i] = cur
	}
	return &Instance{
		Name:   fmt.Sprintf("walk-n%d-s%.2g", n, step),
		Source: geom.Origin,
		Points: pts,
	}
}

// UniformDisk generates n points uniformly in the disk of the given radius
// around the source. Connectivity is whatever density yields; dense settings
// (n ≫ radius²) give small ℓ*.
func UniformDisk(rng *rand.Rand, n int, radius float64) *Instance {
	pts := make([]geom.Point, n)
	for i := range pts {
		r := radius * math.Sqrt(rng.Float64())
		ang := rng.Float64() * 2 * math.Pi
		pts[i] = geom.Pt(r*math.Cos(ang), r*math.Sin(ang))
	}
	return &Instance{
		Name:   fmt.Sprintf("disk-n%d-r%.3g", n, radius),
		Source: geom.Origin,
		Points: pts,
	}
}

// ClusterChain generates `clusters` dense clusters of `per` points each,
// strung on a line with centers `sep` apart and cluster radius `radius`.
// With sep ≫ radius this family has ℓ* ≈ sep − 2·radius and exercises the
// regime where ℓ dominates the makespan bounds.
func ClusterChain(rng *rand.Rand, clusters, per int, sep, radius float64) *Instance {
	var pts []geom.Point
	for c := 1; c <= clusters; c++ {
		center := geom.Pt(float64(c)*sep, 0)
		for i := 0; i < per; i++ {
			r := radius * math.Sqrt(rng.Float64())
			ang := rng.Float64() * 2 * math.Pi
			pts = append(pts, center.Add(geom.Pt(r*math.Cos(ang), r*math.Sin(ang))))
		}
	}
	return &Instance{
		Name:   fmt.Sprintf("chain-c%d-p%d-sep%.3g", clusters, per, sep),
		Source: geom.Origin,
		Points: pts,
	}
}

// GridSwarm generates a k×k grid of robots with the given spacing, the
// lower-left robot at (spacing, spacing). Connectivity threshold equals
// spacing exactly; a fully deterministic, reproducible workload.
func GridSwarm(k int, spacing float64) *Instance {
	pts := make([]geom.Point, 0, k*k)
	for i := 1; i <= k; i++ {
		for j := 1; j <= k; j++ {
			pts = append(pts, geom.Pt(float64(i)*spacing, float64(j)*spacing))
		}
	}
	return &Instance{
		Name:   fmt.Sprintf("grid-%dx%d-s%.3g", k, k, spacing),
		Source: geom.Origin,
		Points: pts,
	}
}

// Line generates n robots on the x-axis spaced `spacing` apart starting at
// (spacing, 0): the canonical maximum-eccentricity instance with ξℓ = ρ* =
// n·spacing.
func Line(n int, spacing float64) *Instance {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i+1)*spacing, 0)
	}
	return &Instance{
		Name:   fmt.Sprintf("line-n%d-s%.3g", n, spacing),
		Source: geom.Origin,
		Points: pts,
	}
}
