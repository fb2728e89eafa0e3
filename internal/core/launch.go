// Package core implements the paper's primary contribution: the index
// launch, an O(1)-size representation of a group of |D| parallel tasks
// (paper §3):
//
//	forall(D, T, ⟨P₁,f₁⟩, …, ⟨Pₙ,fₙ⟩)
//
// where D is the launch domain, T the task, Pᵢ a partition of a collection
// and fᵢ the projection functor selecting which sub-collection of Pᵢ each
// point task receives. The representation stays compact until the runtime's
// distribution stage expands it; expansion is exposed here as lazy per-point
// iteration so no consumer is forced to materialize all |D| tasks.
package core

import (
	"fmt"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/safety"
)

// TaskID names a registered task variant.
type TaskID uint32

// Requirement is one collection argument of an index launch: the
// ⟨partition, projection functor⟩ pair, the declared privilege, and the
// fields accessed.
type Requirement struct {
	Partition *region.Partition
	Functor   projection.Functor
	Priv      privilege.Privilege
	RedOp     privilege.OpID // meaningful only when Priv is Reduce
	Fields    []region.FieldID
}

// Validate checks structural well-formedness of the requirement.
func (r Requirement) Validate() error {
	if r.Partition == nil {
		return fmt.Errorf("core: requirement has nil partition")
	}
	if r.Functor == nil {
		return fmt.Errorf("core: requirement has nil projection functor")
	}
	if !r.Priv.Valid() {
		return fmt.Errorf("core: invalid privilege %d", r.Priv)
	}
	if r.Priv == privilege.Reduce {
		if _, err := privilege.LookupOp(r.RedOp); err != nil {
			return fmt.Errorf("core: reduce requirement: %w", err)
		}
	}
	if len(r.Fields) == 0 {
		return fmt.Errorf("core: requirement selects no fields")
	}
	for _, f := range r.Fields {
		if !r.Partition.Parent.Tree.Fields.Has(f) {
			return fmt.Errorf("core: collection %q has no field %d", r.Partition.Parent.Tree.Name, f)
		}
	}
	return nil
}

// IndexLaunch is the compact representation of a parallel task group. Its
// in-memory size is independent of the number of tasks it represents (for
// dense launch domains; sparse domains carry their point list).
type IndexLaunch struct {
	Task         TaskID
	Tag          string // diagnostic name, e.g. "calc_new_currents"
	Domain       domain.Domain
	Requirements []Requirement
	// Args is an opaque by-value payload delivered to every point task
	// ("non-collection arguments... simply passed to the task by value").
	Args []byte
	// PointArgs, when non-nil, supplies a per-point payload evaluated at
	// expansion time — the analog of Legion's argument maps. It must be a
	// pure function; replicated shards evaluate it independently. When both
	// Args and PointArgs are set, point tasks receive PointArgs' value.
	PointArgs func(domain.Point) []byte
}

// ArgsAt returns the by-value payload for launch point p.
func (l *IndexLaunch) ArgsAt(p domain.Point) []byte {
	if l.PointArgs != nil {
		return l.PointArgs(p)
	}
	return l.Args
}

// Forall constructs an index launch: forall(D, T, reqs...). It validates
// structure (not safety — see Verify) and returns an error for malformed
// requirements or an empty domain.
func Forall(tag string, task TaskID, d domain.Domain, reqs ...Requirement) (*IndexLaunch, error) {
	if d.Empty() {
		return nil, fmt.Errorf("core: index launch %q over empty domain", tag)
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("core: launch %q requirement %d: %w", tag, i, err)
		}
	}
	return &IndexLaunch{Task: task, Tag: tag, Domain: d, Requirements: reqs}, nil
}

// MustForall is Forall that panics on error; for statically correct launches.
func MustForall(tag string, task TaskID, d domain.Domain, reqs ...Requirement) *IndexLaunch {
	l, err := Forall(tag, task, d, reqs...)
	if err != nil {
		panic(err)
	}
	return l
}

// Parallelism returns |D|, the number of point tasks the launch represents
// (the paper's P).
func (l *IndexLaunch) Parallelism() int64 { return l.Domain.Volume() }

// Verify runs the hybrid safety analysis (§3–§4) over the launch. A launch
// whose result is not Safe must not be executed as an index launch; callers
// fall back to a sequential loop of single launches, exactly as the
// generated branch in Listing 3 does.
func (l *IndexLaunch) Verify(opts safety.Options) safety.Result {
	args := make([]safety.Arg, len(l.Requirements))
	for i, r := range l.Requirements {
		args[i] = safety.Arg{Partition: r.Partition, Functor: r.Functor, Priv: r.Priv, RedOp: r.RedOp, Fields: r.Fields}
	}
	return safety.Analyze(l.Domain, args, opts)
}

// PointTask is one expanded task of an index launch.
type PointTask struct {
	Launch *IndexLaunch
	Point  domain.Point
	// Regions holds the sub-collection selected by each requirement's
	// projection functor at this point, in requirement order.
	Regions []*region.Region
}

// At expands the point task for launch point p by evaluating every
// projection functor. It returns an error if p is outside the launch domain
// or a functor selects a color outside its partition's color space.
func (l *IndexLaunch) At(p domain.Point) (PointTask, error) {
	if !l.Domain.Contains(p) {
		return PointTask{}, fmt.Errorf("core: point %v outside launch domain %v of %q", p, l.Domain, l.Tag)
	}
	pt := PointTask{Launch: l, Point: p, Regions: make([]*region.Region, len(l.Requirements))}
	if err := l.project(p, pt.Regions); err != nil {
		return PointTask{}, err
	}
	return pt, nil
}

// project writes the sub-collection each requirement selects at p into
// dst, in requirement order.
func (l *IndexLaunch) project(p domain.Point, dst []*region.Region) error {
	for i, r := range l.Requirements {
		color := r.Functor.Project(p)
		sub, err := r.Partition.Subregion(color)
		if err != nil {
			return fmt.Errorf("core: launch %q point %v requirement %d: %w", l.Tag, p, i, err)
		}
		dst[i] = sub
	}
	return nil
}

// Each lazily expands the launch, invoking fn for every point task in
// canonical domain order. Expansion stops at the first error or when fn
// returns false. This is the only way to enumerate an index launch; there is
// deliberately no method materializing all point tasks at once. The
// Regions slice of the PointTask passed to fn is reused for the next point:
// copy it to keep it beyond the call.
func (l *IndexLaunch) Each(fn func(PointTask) bool) error {
	var err error
	regions := make([]*region.Region, len(l.Requirements))
	l.Domain.Each(func(p domain.Point) bool {
		if err = l.project(p, regions); err != nil {
			return false
		}
		return fn(PointTask{Launch: l, Point: p, Regions: regions})
	})
	return err
}

// ReprBytes estimates the in-memory size of the compact representation.
// For dense launch domains the result is independent of Parallelism() —
// the paper's O(1) claim — while sparse domains pay for their point list.
// The estimate covers the launch struct, requirement slice, and domain.
func (l *IndexLaunch) ReprBytes() int64 {
	const (
		launchHeader = 96 // struct fields, slice headers, tag header
		perReq       = 64 // partition pointer, functor iface, privilege, fields header
		denseDomain  = 64 // two points + flags
		perSparsePt  = 32
	)
	size := int64(launchHeader) + int64(len(l.Requirements))*perReq + int64(len(l.Args))
	if l.Domain.Sparse() {
		size += denseDomain + l.Domain.Volume()*perSparsePt
	} else {
		size += denseDomain
	}
	return size
}

func (l *IndexLaunch) String() string {
	return fmt.Sprintf("forall(%v, %s/%d, %d reqs)", l.Domain, l.Tag, l.Task, len(l.Requirements))
}
