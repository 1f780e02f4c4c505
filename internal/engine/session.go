package engine

import (
	"fmt"
	"math"
	"sort"

	"octgb/internal/core"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/surface"
)

// Session is the incremental-evaluation pipeline for moving molecules: an
// MD-trajectory or docking-refinement stream where a small fraction of the
// atoms moves a little each frame. Where Prepared amortizes preprocessing
// across evaluations of FROZEN geometry, a Session amortizes it across
// frames of DRIFTING geometry, turning per-frame cost from O(full eval)
// into O(changed atoms + affected neighborhoods).
//
// The design has three layers of caching, each with an explicit validity
// rule:
//
//   - Structure (octrees, interaction lists). Both trees' topology is
//     frozen for the session's lifetime; node geometry is frozen per
//     "epoch" between structural refreshes. Interaction lists are derived
//     per DRIVER leaf (a T_Q leaf for the Born phase, an atoms-tree leaf
//     for the energy phase) with every enclosing ball inflated by a slack
//     margin (core.SlackMargin), so a list stays valid while its driver's
//     points drift within the margin. A driver whose points exceed their
//     margin gets just its own segment re-derived against the refit ball
//     of its current points; a non-driver (internal) node exceeding its
//     margin triggers a full structural refresh (refit + rebuild).
//   - Far fields. Far-entry values depend only on epoch-frozen node
//     geometry and aggregates (ñ_Q is position independent; the energy
//     phase's charge bins are frozen per epoch), so they are cached per
//     entry and only recomputed when their segment is re-derived.
//   - Per-frame values, cached at PAIR granularity. The Born phase keeps
//     one row block per (T_A leaf, driver) near entry — the driver's
//     contribution to each atom of the leaf — and the energy phase one
//     value per (u-leaf, driver) near entry. A cached entry is a pure
//     function of its two leaves' atom data, so exactly the entries whose
//     inputs changed are re-evaluated each frame; row and driver sums are
//     then rebuilt as plain float64 additions over the caches in a
//     canonical order (drivers ascending, entries in traversal order).
//     Every path — incremental, resweep, refresh, creation — evaluates an
//     entry through the same single-entry range-evaluator call, and there
//     is NO subtract-old/add-new arithmetic anywhere, so a clean cache
//     entry is BITWISE the value a full recompute would produce: a session
//     with ResweepEvery=1 (every frame recomputes every value from current
//     state) is the from-scratch oracle, and the incremental path must
//     match it exactly, not merely within a drift tolerance.
//     ResweepEvery's periodic full resweep therefore re-verifies rather
//     than repairs; it bounds the blast radius of any dirty-tracking
//     defect.
//
// One deliberate, bounded staleness knob sits between the two phases:
// exact Born radii (rTree) are maintained every frame, but the energy
// solver's copy is re-pushed only when a radius drifts more than
// RadiusTolerance relative to its pushed value. Without the gate the
// radius coupling is dense — at 1% atom motion essentially every radius
// moves by a few ulps to 1e-6 relative, dirtying every energy driver and
// pinning the frame cost at a full energy near-field sweep. The push rule
// is a deterministic function of the frame stream alone (resweeps
// recompute values but do not force pushes), so oracle and incremental
// sessions hold bitwise-identical pushed radii and the 1e-12 oracle
// contract is untouched; the cost is a bounded absolute offset of order
// RadiusTolerance against a zero-tolerance session, far below the
// treecode approximation error. RadiusTolerance < 0 disables the gate.
//
// Surface quadrature points are transported rigidly with their owning atom
// (surface.SampleOwned); burial culling is decided at session creation and
// not revisited, which is the standard fixed-topology approximation for
// small-amplitude streams. A Session is not safe for concurrent use.
type Session struct {
	opts SessionOptions
	eo   Options // evaluation options, defaults resolved

	mol     *molecule.Molecule // session-owned copy, current positions
	charges []float64
	ecfg    core.EpolConfig

	bs *core.BornSolver
	es *core.EpolSolver

	// Frozen-topology maps.
	aInv    []int32     // original atom index -> T_A tree index
	aLeafOf []int32     // T_A tree index -> owning leaf node
	qLeafOf []int32     // T_Q tree index -> owning leaf node
	qOwner  [][]int32   // original atom index -> owned q-point tree indices
	qOff    []geom.Vec3 // q-point tree index -> rigid offset from owner atom
	aDense  []int32     // T_A node id -> dense leaf index (-1 for non-leaf)
	qDense  []int32     // T_Q node id -> dense leaf index

	// Born phase per-driver segments (indexed by dense T_Q leaf index).
	bornNear       [][]int32   // near entries: T_A leaf node ids, traversal order
	bornFar        [][]int32   // far entries: T_A node ids, traversal order
	bornFarVal     [][]float64 // cached far-entry values, parallel to bornFar
	bornPartners   [][]int32   // T_A leaf node id -> dense driver indices, ascending
	bornPartnerPos [][]int32   // parallel: entry index within the driver's near list
	bornEntrySlot  [][]int32   // per driver: entry k's slot in its row's partner list

	// rowBlk holds the per-(row, driver) near blocks ROW-major: row leaf a
	// keeps its partners' blocks contiguous in ascending driver order
	// (slot s of P, each Count(a) wide), so the per-frame row resum is a
	// single sequential sweep instead of one pointer chase per tiny block.
	// The trade is that a row's slots shift when its partner MEMBERSHIP
	// changes; rederiveBorn detects exactly those rows (symmetric diff of
	// the old and new near list) and they re-derive all their blocks.
	rowBlk [][]float64 // per T_A leaf node id

	sNodeFar  []float64 // per T_A node: canonical far sums
	farTotal  []float64 // per T_A node: pushed-down ancestor totals
	sAtomNear []float64 // per atom (tree order): near-field rows
	rTree     []float64 // per atom (tree order): exact current Born radii
	rPushed   []float64 // per atom (tree order): radius the energy solver holds

	// Energy phase per-driver segments (indexed by dense atoms-tree leaf
	// index). Near segments keep the NodePair form so resums can run the
	// same (vectorized where available) range evaluator the flat pipeline
	// uses — the session must use ONE evaluator per value kind everywhere,
	// or incremental and resweep values would diverge at summation-order
	// level.
	epolNear       [][]core.NodePair // near entries, traversal order
	epolNearVal    [][]float64       // cached per-entry near values, parallel to epolNear
	epolFar        [][]int32         // far entries: u node ids, traversal order
	nearVal        []float64         // per driver: near-field sum
	farVal         []float64         // per driver: far-field sum (epoch-frozen inputs)
	epolPartners   [][]int32         // u-leaf node id -> dense driver indices, ascending
	epolPartnerPos [][]int32         // parallel: entry index within the driver's near list

	// Slack-margin state. refPos* is the per-point position at the owning
	// driver's last (re-)derivation; epochPos* at the last structural
	// refresh. disp* hold per-leaf maximum point displacements against
	// those references; refBallR* the driver-ball radius the slack budget
	// is anchored to.
	refPosA, epochPosA   []geom.Vec3
	refPosQ, epochPosQ   []geom.Vec3
	dispRefA, dispEpochA []float64
	dispRefQ, dispEpochQ []float64
	refBallRA, refBallRQ []float64
	nodeDispA, nodeDispQ []float64 // epoch-bubble scratch, per node

	frame  int
	energy float64

	// Per-frame scratch (mark bits cleared lazily via the id lists).
	scratch        core.InteractionList
	rowPairs       core.InteractionList // reusable single-entry pair view
	rowScratch     []float64            // full-length row scratch for block evals
	movedA, movedQ []int32              // moved leaf node ids this frame
	markA, markQ   []bool
	dirtyRows      []int32 // T_A leaf node ids with dirty near rows
	markRow        []bool
	dirtyV         []int32 // dense energy-driver indices to resum
	markV          []bool
	listU          []int32 // T_A leaf node ids whose energy inputs changed
	markU          []bool
	dirtyEnt       [][]int32 // per driver: entry indices to re-evaluate (drained per frame)
	fullV          []bool    // per driver: re-evaluate the whole segment this frame
	slotDirty      []int32   // T_A leaf node ids whose partner membership changed
	markSlot       []bool
	oldNear        []int32 // rederiveBorn scratch: the driver's previous near list
}

// SessionOptions configures a streaming session.
type SessionOptions struct {
	// Surf is the surface sampling used once at session creation.
	Surf surface.Options
	// Eval supplies the engine parameters (BornEps, EpolEps, Math,
	// LeafSize, CriterionPower). Parallel/distributed fields
	// are ignored — a session evaluates serially, its work being O(dirty).
	Eval Options
	// ResweepEvery forces a full value resweep every k-th frame (≤0 → 64).
	// The resweep recomputes every cached value from current positions in
	// canonical order; with sound dirty tracking it is a bitwise no-op, so
	// it bounds the damage of a tracking defect rather than accumulated
	// float drift (the zero-and-resum design has none). 1 = every frame
	// (the from-scratch oracle the property tests compare against).
	ResweepEvery int
	// SlackFactor and MinSlack define the drift margin
	// core.SlackMargin(r) = SlackFactor·r + MinSlack granted to enclosing
	// balls before lists are re-derived (driver leaves) or the structure
	// is refreshed (any node). Defaults 0.05 and 0.25 Å.
	SlackFactor float64
	MinSlack    float64
	// RadiusTolerance is the relative staleness budget of the Born radii
	// the energy phase evaluates with: atom radii are recomputed exactly
	// every frame, but the energy solver's copy is re-pushed only when
	// |r_exact - r_pushed| > RadiusTolerance·r_exact. The gate is what
	// localizes the energy phase's dirty set — the radius coupling is
	// dense at the last-ulp level — and its error against a zero-tolerance
	// session is a bounded offset of order RadiusTolerance, far below the
	// treecode approximation error. The push rule depends only on the
	// frame stream, never on resweep cadence, so it does not perturb the
	// oracle contract. 0 → default 1e-6; negative → exact (push every
	// changed bit).
	RadiusTolerance float64
}

func (o SessionOptions) withDefaults() SessionOptions {
	if o.ResweepEvery <= 0 {
		o.ResweepEvery = 64
	}
	if o.SlackFactor <= 0 {
		o.SlackFactor = 0.05
	}
	if o.MinSlack <= 0 {
		o.MinSlack = 0.25
	}
	switch {
	case o.RadiusTolerance == 0:
		o.RadiusTolerance = 1e-6
	case o.RadiusTolerance < 0:
		o.RadiusTolerance = 0
	}
	return o
}

// rederiveFraction is the share of a driver ball's slack margin its points
// may drift before the driver's segment is re-derived. It must be < 1: the
// epoch bubble refreshes the whole structure at the FULL margin, and both
// thresholds start from the same geometry, so an equal fraction would let
// the refresh path shadow re-derivation entirely. Classification inflation
// stays at the full margin, so re-deriving earlier never loosens a far
// decision — it only re-anchors the driver's budget sooner.
const rederiveFraction = 0.5

// AtomMove sets one atom (original order) to an absolute position.
type AtomMove struct {
	Index int
	Pos   geom.Vec3
}

// FrameDelta is one frame of a stream: the atoms that moved.
type FrameDelta struct {
	Moves []AtomMove
}

// FrameReport describes what one Step did.
type FrameReport struct {
	Frame      int
	Energy     float64 // E_pol after this frame, kcal/mol
	MovedAtoms int
	// DirtyBornRows counts T_A leaf rows whose Born near sums were
	// resummed; DirtyEpolDrivers the energy drivers resummed. Both are 0
	// when the frame took the resweep or refresh path.
	DirtyBornRows    int
	DirtyEpolDrivers int
	// PushedRadii counts Born radii re-pushed to the energy solver after
	// drifting past RadiusTolerance.
	PushedRadii int
	// Rederived counts driver segments re-derived after a slack breach.
	Rederived int
	// Resweep / Refreshed mark frames that took the periodic full resweep
	// or the structural-refresh path.
	Resweep   bool
	Refreshed bool
}

// NewSession samples the molecule's surface, builds both treecode solvers,
// derives every driver segment with slack margins, and evaluates the
// initial energy. The molecule is copied; the caller's value is never
// mutated.
func NewSession(mol *molecule.Molecule, o SessionOptions) (*Session, error) {
	o = o.withDefaults()
	eo := o.Eval.withDefaults(OctCilk)
	if err := eo.Validate(); err != nil {
		return nil, err
	}
	if mol.N() == 0 {
		return nil, fmt.Errorf("engine: session needs a non-empty molecule")
	}
	m := &molecule.Molecule{Name: mol.Name, Atoms: append([]molecule.Atom(nil), mol.Atoms...)}
	qpts, owners := surface.SampleOwned(m, o.Surf)
	if len(qpts) == 0 {
		return nil, fmt.Errorf("engine: session surface sampling produced no quadrature points")
	}

	ss := &Session{opts: o, eo: eo, mol: m}
	ss.charges = make([]float64, m.N())
	for i := range m.Atoms {
		ss.charges[i] = m.Atoms[i].Charge
	}
	ss.ecfg = core.EpolConfig{Eps: eo.EpolEps, Math: eo.Math}
	ss.bs = core.NewBornSolver(m, qpts, core.BornConfig{
		Eps: eo.BornEps, CriterionPower: eo.CriterionPower, LeafSize: eo.LeafSize,
	})
	ta, tq := ss.bs.TA, ss.bs.TQ

	ss.aInv = ta.InvPerm()
	ss.aLeafOf = ta.PointLeaves()
	ss.qLeafOf = tq.PointLeaves()
	ss.qOwner = make([][]int32, m.N())
	ss.qOff = make([]geom.Vec3, len(qpts))
	for j, orig := range tq.Perm {
		ow := owners[orig]
		ss.qOff[j] = qpts[orig].Pos.Sub(m.Atoms[ow].Pos)
		ss.qOwner[ow] = append(ss.qOwner[ow], int32(j))
	}
	ss.aDense = denseLeafIndex(len(ta.Nodes), ta.LeafIdx)
	ss.qDense = denseLeafIndex(len(tq.Nodes), tq.LeafIdx)

	nA, nQ := len(ta.Points), len(tq.Points)
	la, lq := len(ta.LeafIdx), len(tq.LeafIdx)
	ss.bornNear = make([][]int32, lq)
	ss.bornFar = make([][]int32, lq)
	ss.bornFarVal = make([][]float64, lq)
	ss.bornEntrySlot = make([][]int32, lq)
	ss.rowBlk = make([][]float64, len(ta.Nodes))
	ss.bornPartners = make([][]int32, len(ta.Nodes))
	ss.bornPartnerPos = make([][]int32, len(ta.Nodes))
	ss.sNodeFar = make([]float64, len(ta.Nodes))
	ss.farTotal = make([]float64, len(ta.Nodes))
	ss.sAtomNear = make([]float64, nA)
	ss.rTree = make([]float64, nA)
	ss.rPushed = make([]float64, nA)
	ss.epolNear = make([][]core.NodePair, la)
	ss.epolNearVal = make([][]float64, la)
	ss.epolFar = make([][]int32, la)
	ss.nearVal = make([]float64, la)
	ss.farVal = make([]float64, la)
	ss.epolPartners = make([][]int32, len(ta.Nodes))
	ss.epolPartnerPos = make([][]int32, len(ta.Nodes))
	ss.rowScratch = make([]float64, nA)

	ss.refPosA = append([]geom.Vec3(nil), ta.Points...)
	ss.epochPosA = append([]geom.Vec3(nil), ta.Points...)
	ss.refPosQ = append([]geom.Vec3(nil), tq.Points...)
	ss.epochPosQ = append([]geom.Vec3(nil), tq.Points...)
	ss.dispRefA = make([]float64, len(ta.Nodes))
	ss.dispEpochA = make([]float64, len(ta.Nodes))
	ss.dispRefQ = make([]float64, len(tq.Nodes))
	ss.dispEpochQ = make([]float64, len(tq.Nodes))
	ss.refBallRA = make([]float64, len(ta.Nodes))
	ss.refBallRQ = make([]float64, len(tq.Nodes))
	ss.nodeDispA = make([]float64, len(ta.Nodes))
	ss.nodeDispQ = make([]float64, len(tq.Nodes))
	ss.markA = make([]bool, len(ta.Nodes))
	ss.markQ = make([]bool, len(tq.Nodes))
	ss.markRow = make([]bool, len(ta.Nodes))
	ss.markSlot = make([]bool, len(ta.Nodes))
	ss.markV = make([]bool, la)
	ss.markU = make([]bool, len(ta.Nodes))
	ss.dirtyEnt = make([][]int32, la)
	ss.fullV = make([]bool, la)
	_ = nQ

	ss.rebuildStructure()
	return ss, nil
}

// denseLeafIndex inverts LeafIdx: node id -> dense leaf index, -1 elsewhere.
func denseLeafIndex(nodes int, leafIdx []int32) []int32 {
	out := make([]int32, nodes)
	for i := range out {
		out[i] = -1
	}
	for dense, node := range leafIdx {
		out[node] = int32(dense)
	}
	return out
}

// Energy returns E_pol after the most recent frame (kcal/mol).
func (ss *Session) Energy() float64 { return ss.energy }

// Frame returns the number of frames stepped so far.
func (ss *Session) Frame() int { return ss.frame }

// NumAtoms returns the atom count.
func (ss *Session) NumAtoms() int { return len(ss.mol.Atoms) }

// NumQPoints returns the surface quadrature point count.
func (ss *Session) NumQPoints() int { return len(ss.qOff) }

// Step advances the stream by one frame: apply the delta, re-derive what
// the slack margins invalidated, recompute exactly the dirty values, and
// return the new energy. On an out-of-range move index the session is left
// unchanged.
func (ss *Session) Step(d FrameDelta) (FrameReport, error) {
	n := len(ss.mol.Atoms)
	for _, mv := range d.Moves {
		if mv.Index < 0 || mv.Index >= n {
			return FrameReport{}, fmt.Errorf("engine: frame move references atom %d, have %d atoms", mv.Index, n)
		}
	}
	ss.clearFrameMarks()
	ss.frame++
	rep := FrameReport{Frame: ss.frame, MovedAtoms: len(d.Moves)}

	// Apply moves: patch every position mirror of both solvers, transport
	// owned q-points rigidly, and mark the moved leaves of both trees.
	for _, mv := range d.Moves {
		ti := ss.aInv[mv.Index]
		ss.mol.Atoms[mv.Index].Pos = mv.Pos
		ss.bs.TA.SetPoint(ti, mv.Pos)
		ss.es.SetPointMirrors(ti, mv.Pos)
		if l := ss.aLeafOf[ti]; !ss.markA[l] {
			ss.markA[l] = true
			ss.movedA = append(ss.movedA, l)
		}
		for _, qi := range ss.qOwner[mv.Index] {
			ss.bs.TQ.SetPoint(qi, mv.Pos.Add(ss.qOff[qi]))
			if l := ss.qLeafOf[qi]; !ss.markQ[l] {
				ss.markQ[l] = true
				ss.movedQ = append(ss.movedQ, l)
			}
		}
	}
	sortInt32(ss.movedA)
	sortInt32(ss.movedQ)

	// Refresh per-leaf displacement maxima for the moved leaves, then
	// bubble epoch displacements up both trees; any node beyond its slack
	// margin forces a structural refresh.
	for _, l := range ss.movedA {
		ss.dispRefA[l], ss.dispEpochA[l] = leafDisp(ss.bs.TA, l, ss.refPosA, ss.epochPosA)
	}
	for _, l := range ss.movedQ {
		ss.dispRefQ[l], ss.dispEpochQ[l] = leafDisp(ss.bs.TQ, l, ss.refPosQ, ss.epochPosQ)
	}
	if len(ss.movedA)+len(ss.movedQ) > 0 && ss.epochBreach() {
		ss.refresh()
		rep.Refreshed = true
		rep.Energy = ss.energy
		return rep, nil
	}

	// Re-derive the driver segments whose points drifted past their slack
	// budget. Only moved leaves can newly breach.
	bornStruct, epolStruct := false, false
	for _, l := range ss.movedQ {
		if ss.dispRefQ[l] > rederiveFraction*core.SlackMargin(ss.refBallRQ[l], ss.opts.SlackFactor, ss.opts.MinSlack) {
			ss.rederiveBorn(l)
			bornStruct = true
			rep.Rederived++
		}
	}
	for _, l := range ss.movedA {
		if ss.dispRefA[l] > rederiveFraction*core.SlackMargin(ss.refBallRA[l], ss.opts.SlackFactor, ss.opts.MinSlack) {
			ss.rederiveEpol(l)
			epolStruct = true
			rep.Rederived++
		}
	}
	if bornStruct {
		ss.rebuildBornPartners()
		ss.recomputeFarSums()
		// Rows whose partner membership changed have shifted block slots:
		// resize their stores now (the resweep path writes through slots
		// too); their block values are rebuilt in the incremental pass.
		for _, a := range ss.slotDirty {
			ss.sizeRowBlocks(a)
			ss.markDirtyRow(a)
		}
	}
	if epolStruct {
		ss.rebuildEpolPartners()
	}

	// Periodic full resweep: recompute EVERY cached value from current
	// positions in canonical order. Bitwise a no-op when dirty tracking is
	// sound — the property tests pin exactly that.
	if ss.frame%ss.opts.ResweepEvery == 0 {
		ss.resweep()
		rep.Resweep = true
		rep.Energy = ss.energy
		return rep, nil
	}

	// Born near blocks: a cached block is a pure function of its driver's
	// q-points and its row's atom positions, so re-evaluate every block of
	// a moved (or re-derived) driver and, for each moved row, its block in
	// every partnered driver; then rebuild the dirty rows from the caches
	// with plain additions in canonical driver order. rederiveBorn marked
	// the old and new rows of re-derived drivers already.
	for _, l := range ss.movedQ {
		ql := int(ss.qDense[l])
		ss.recomputeDriverBlocks(ql)
		for _, a := range ss.bornNear[ql] {
			ss.markDirtyRow(a)
		}
	}
	for _, l := range ss.movedA {
		ss.markDirtyRow(l)
		pp, pk := ss.bornPartners[l], ss.bornPartnerPos[l]
		for idx := range pp {
			ss.recomputeBornBlock(int(pp[idx]), int(pk[idx]))
		}
	}
	// Slot-shifted rows rebuild ALL their blocks: values of unmoved
	// partners are unchanged but live at new offsets, and re-evaluating
	// through the canonical entry path reproduces them bitwise.
	for _, a := range ss.slotDirty {
		pp, pk := ss.bornPartners[a], ss.bornPartnerPos[a]
		for idx := range pp {
			ss.recomputeBornBlock(int(pp[idx]), int(pk[idx]))
		}
	}
	sortInt32(ss.dirtyRows)
	for _, a := range ss.dirtyRows {
		ss.resumBornRow(a)
	}
	rep.DirtyBornRows = len(ss.dirtyRows)

	// Born radii: rTree is always recomputed exactly (O(atoms), pure
	// function of the cached sums); the energy solver's copy is re-pushed
	// only past RadiusTolerance. The energy dirty set is then exactly the
	// leaves whose pushed inputs changed: moved leaves plus leaves holding
	// a re-pushed radius.
	for _, l := range ss.movedA {
		ss.markULeaf(l)
	}
	rep.PushedRadii = ss.pushRadii(true)

	// Energy near entries: a changed u-leaf dirties its entry in every
	// partnered driver; a driver whose own leaf changed dirties its whole
	// segment (its atoms sit on the v side of every entry). Dirty entries
	// are then re-evaluated grouped per driver — one v-tile pack per
	// driver in the vector path — and dirty drivers resum their cached
	// entries in traversal order.
	sortInt32(ss.listU)
	for _, u := range ss.listU {
		if vl := ss.aDense[u]; vl >= 0 {
			ss.fullV[vl] = true
			ss.markDirtyV(vl)
		}
		pp, pk := ss.epolPartners[u], ss.epolPartnerPos[u]
		for idx := range pp {
			vl := pp[idx]
			if !ss.fullV[vl] {
				ss.dirtyEnt[vl] = append(ss.dirtyEnt[vl], pk[idx])
			}
			ss.markDirtyV(vl)
		}
	}
	sortInt32(ss.dirtyV)
	for _, vl := range ss.dirtyV {
		if ss.fullV[vl] {
			ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], nil, ss.epolNearVal[vl])
		} else {
			ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], ss.dirtyEnt[vl], ss.epolNearVal[vl])
		}
		ss.fullV[vl] = false
		ss.dirtyEnt[vl] = ss.dirtyEnt[vl][:0]
		ss.resumEpolNear(int(vl))
	}
	rep.DirtyEpolDrivers = len(ss.dirtyV)

	ss.energy = ss.sumEnergy()
	rep.Energy = ss.energy
	return rep, nil
}

// clearFrameMarks resets the previous frame's scratch marks via their id
// lists (O(previously dirty), not O(nodes)).
func (ss *Session) clearFrameMarks() {
	for _, l := range ss.movedA {
		ss.markA[l] = false
	}
	for _, l := range ss.movedQ {
		ss.markQ[l] = false
	}
	for _, l := range ss.dirtyRows {
		ss.markRow[l] = false
	}
	for _, vl := range ss.dirtyV {
		ss.markV[vl] = false
	}
	for _, l := range ss.listU {
		ss.markU[l] = false
	}
	for _, l := range ss.slotDirty {
		ss.markSlot[l] = false
	}
	ss.movedA, ss.movedQ = ss.movedA[:0], ss.movedQ[:0]
	ss.dirtyRows, ss.dirtyV = ss.dirtyRows[:0], ss.dirtyV[:0]
	ss.listU = ss.listU[:0]
	ss.slotDirty = ss.slotDirty[:0]
}

func (ss *Session) markDirtyRow(aLeaf int32) {
	if !ss.markRow[aLeaf] {
		ss.markRow[aLeaf] = true
		ss.dirtyRows = append(ss.dirtyRows, aLeaf)
	}
}

func (ss *Session) markDirtyV(vl int32) {
	if !ss.markV[vl] {
		ss.markV[vl] = true
		ss.dirtyV = append(ss.dirtyV, vl)
	}
}

func (ss *Session) markULeaf(l int32) {
	if !ss.markU[l] {
		ss.markU[l] = true
		ss.listU = append(ss.listU, l)
	}
}

// pushRadii recomputes every Born radius exactly from the cached sums and
// re-pushes to the energy solver the ones that drifted past
// RadiusTolerance relative to their pushed value, returning the push
// count. With markLeaves set, the owning leaf of every push is added to
// the frame's changed-input set; the resweep path recomputes every energy
// entry anyway and skips the marking. The push RULE is identical on both
// paths — pushes depend only on the frame stream, which is what keeps
// oracle and incremental sessions bitwise aligned.
func (ss *Session) pushRadii(markLeaves bool) int {
	rtol := ss.opts.RadiusTolerance
	pushed := 0
	for i := range ss.rTree {
		r := ss.bs.BornRadiusFromSums(int32(i), ss.sAtomNear[i]+ss.farTotal[ss.aLeafOf[i]])
		ss.rTree[i] = r
		d := r - ss.rPushed[i]
		if d < 0 {
			d = -d
		}
		if d > rtol*r {
			ss.rPushed[i] = r
			ss.es.SetRadius(int32(i), r)
			pushed++
			if markLeaves {
				ss.markULeaf(ss.aLeafOf[i])
			}
		}
	}
	return pushed
}

// epochBreach bubbles per-leaf epoch displacements bottom-up (children
// precede parents in reverse index order) and reports whether any node's
// displacement exceeds its frozen ball's slack margin.
func (ss *Session) epochBreach() bool {
	return bubbleBreach(ss.bs.TA, ss.dispEpochA, ss.nodeDispA, ss.opts.SlackFactor, ss.opts.MinSlack) ||
		bubbleBreach(ss.bs.TQ, ss.dispEpochQ, ss.nodeDispQ, ss.opts.SlackFactor, ss.opts.MinSlack)
}

// rederiveBorn rebuilds one Born driver segment against the refit ball of
// the driver's current points, recomputes its cached far values, marks the
// old and new partner rows dirty, and resets the driver's slack budget.
func (ss *Session) rederiveBorn(qLeaf int32) {
	ql := ss.qDense[qLeaf]
	ss.oldNear = append(ss.oldNear[:0], ss.bornNear[ql]...)
	for _, a := range ss.bornNear[ql] {
		ss.markDirtyRow(a)
	}
	c, r := currentBall(ss.bs.TQ, qLeaf)
	ss.bs.BuildBornDriverSlack(&ss.scratch, qLeaf, c, r, ss.opts.SlackFactor, ss.opts.MinSlack)
	ss.bornNear[ql] = appendANodes(ss.bornNear[ql][:0], ss.scratch.Near)
	ss.bornFar[ql] = appendANodes(ss.bornFar[ql][:0], ss.scratch.Far)
	ss.bornFarVal[ql] = ss.bornFarVal[ql][:0]
	for _, a := range ss.bornFar[ql] {
		ss.bornFarVal[ql] = append(ss.bornFarVal[ql], ss.bs.BornFarTerm(a, qLeaf))
	}
	for _, a := range ss.bornNear[ql] {
		ss.markDirtyRow(a)
	}
	// Rows entering or leaving this driver's near list are the rows whose
	// partner membership — and hence row-major slot layout — changes. Both
	// lists come out of the traversal in ascending node order, so the
	// symmetric difference is a single merge.
	i, j := 0, 0
	nw := ss.bornNear[ql]
	for i < len(ss.oldNear) && j < len(nw) {
		switch {
		case ss.oldNear[i] == nw[j]:
			i++
			j++
		case ss.oldNear[i] < nw[j]:
			ss.markSlotDirty(ss.oldNear[i])
			i++
		default:
			ss.markSlotDirty(nw[j])
			j++
		}
	}
	for ; i < len(ss.oldNear); i++ {
		ss.markSlotDirty(ss.oldNear[i])
	}
	for ; j < len(nw); j++ {
		ss.markSlotDirty(nw[j])
	}
	ss.resetRefQ(qLeaf, r)
}

func (ss *Session) markSlotDirty(aLeaf int32) {
	if !ss.markSlot[aLeaf] {
		ss.markSlot[aLeaf] = true
		ss.slotDirty = append(ss.slotDirty, aLeaf)
	}
}

// sizeRowBlocks sizes one row's block store to its current partner count;
// the values are rebuilt by whoever changed the layout.
func (ss *Session) sizeRowBlocks(aLeaf int32) {
	need := len(ss.bornPartners[aLeaf]) * int(ss.bs.TA.Nodes[aLeaf].Count)
	if cap(ss.rowBlk[aLeaf]) < need {
		ss.rowBlk[aLeaf] = make([]float64, need)
	} else {
		ss.rowBlk[aLeaf] = ss.rowBlk[aLeaf][:need]
	}
}

// rederiveEpol is rederiveBorn's energy-phase counterpart: the driver's
// near and far lists are rebuilt, its far sum recomputed from the frozen
// epoch aggregates, and its entry-value cache resized. The entry VALUES
// are left stale: an energy driver is only re-derived when its own atoms
// moved, which puts its leaf in the frame's changed-input set and forces a
// full segment re-evaluation later in the frame regardless.
func (ss *Session) rederiveEpol(aLeaf int32) {
	vl := int(ss.aDense[aLeaf])
	c, r := currentBall(ss.bs.TA, aLeaf)
	ss.es.BuildEpolDriverSlack(&ss.scratch, aLeaf, c, r, ss.opts.SlackFactor, ss.opts.MinSlack)
	ss.epolNear[vl] = append(ss.epolNear[vl][:0], ss.scratch.Near...)
	ss.epolFar[vl] = appendANodes(ss.epolFar[vl][:0], ss.scratch.Far)
	ss.epolNearVal[vl] = resizeF64(ss.epolNearVal[vl], len(ss.epolNear[vl]))
	ss.recomputeEpolFar(vl)
	ss.markDirtyV(int32(vl))
	lo, hi := ss.bs.TA.PointRange(aLeaf)
	copy(ss.refPosA[lo:hi], ss.bs.TA.Points[lo:hi])
	ss.dispRefA[aLeaf] = 0
	ss.refBallRA[aLeaf] = r
}

func (ss *Session) resetRefQ(qLeaf int32, ballR float64) {
	lo, hi := ss.bs.TQ.PointRange(qLeaf)
	copy(ss.refPosQ[lo:hi], ss.bs.TQ.Points[lo:hi])
	ss.dispRefQ[qLeaf] = 0
	ss.refBallRQ[qLeaf] = ballR
}

// rebuildBornPartners re-derives the reverse index (T_A leaf -> drivers
// whose near lists contain it, plus the entry position within each), in
// ascending driver order.
func (ss *Session) rebuildBornPartners() {
	for i := range ss.bornPartners {
		ss.bornPartners[i] = ss.bornPartners[i][:0]
		ss.bornPartnerPos[i] = ss.bornPartnerPos[i][:0]
	}
	for ql := range ss.bornNear {
		slots := ss.bornEntrySlot[ql][:0]
		for k, a := range ss.bornNear[ql] {
			ss.bornPartners[a] = append(ss.bornPartners[a], int32(ql))
			ss.bornPartnerPos[a] = append(ss.bornPartnerPos[a], int32(k))
			// Drivers are visited ascending, so the append position IS the
			// entry's final slot in the row's partner-ordered block store.
			slots = append(slots, int32(len(ss.bornPartners[a])-1))
		}
		ss.bornEntrySlot[ql] = slots
	}
}

func (ss *Session) rebuildEpolPartners() {
	for i := range ss.epolPartners {
		ss.epolPartners[i] = ss.epolPartners[i][:0]
		ss.epolPartnerPos[i] = ss.epolPartnerPos[i][:0]
	}
	for vl := range ss.epolNear {
		for k, p := range ss.epolNear[vl] {
			ss.epolPartners[p.A] = append(ss.epolPartners[p.A], int32(vl))
			ss.epolPartnerPos[p.A] = append(ss.epolPartnerPos[p.A], int32(k))
		}
	}
}

// recomputeFarSums rebuilds the canonical per-node far sums from the
// cached far-entry values (drivers ascending, entries in traversal order)
// and pushes them down the atoms tree.
func (ss *Session) recomputeFarSums() {
	for i := range ss.sNodeFar {
		ss.sNodeFar[i] = 0
	}
	for ql := range ss.bornFar {
		vals := ss.bornFarVal[ql]
		for k, a := range ss.bornFar[ql] {
			ss.sNodeFar[a] += vals[k]
		}
	}
	ss.bs.FarTotals(ss.sNodeFar, ss.farTotal)
}

// recomputeBornBlock re-evaluates one (driver, row) near entry into its
// cached block: the row range of the scratch is zeroed, the single entry
// runs through the SAME range evaluator every other path uses, and the
// result is copied out. Single-entry evaluation is the canonical value of
// an entry everywhere, so cached blocks are bitwise reproducible.
func (ss *Session) recomputeBornBlock(ql, k int) {
	a := ss.bornNear[ql][k]
	lo, hi := ss.bs.TA.PointRange(a)
	for i := lo; i < hi; i++ {
		ss.rowScratch[i] = 0
	}
	ss.rowPairs.Near = append(ss.rowPairs.Near[:0], core.NodePair{A: a, B: ss.bs.TQ.LeafIdx[ql]})
	ss.bs.EvalBornNearRange(&ss.rowPairs, 0, 1, ss.rowScratch)
	cnt := int(hi - lo)
	s := int(ss.bornEntrySlot[ql][k])
	copy(ss.rowBlk[a][s*cnt:(s+1)*cnt], ss.rowScratch[lo:hi])
}

// resumBornRow rebuilds one T_A leaf's near-field row from its row-major
// block store — plain float64 additions over a contiguous sweep, slot
// order being ascending driver order, the canonical order every full
// recompute uses.
func (ss *Session) resumBornRow(aLeaf int32) {
	lo, hi := ss.bs.TA.PointRange(aLeaf)
	row := ss.sAtomNear[lo:hi]
	for j := range row {
		row[j] = 0
	}
	cnt := int(hi - lo)
	blk := ss.rowBlk[aLeaf]
	for s := 0; s+cnt <= len(blk); s += cnt {
		b := blk[s : s+cnt]
		for j := range b {
			row[j] += b[j]
		}
	}
}

// recomputeDriverBlocks re-evaluates every cached block of one Born
// driver in a single range call: a driver's entries share its q-tile, and
// each entry writes a disjoint row range of the scratch, so the batched
// call produces every block bitwise as a single-entry call would.
func (ss *Session) recomputeDriverBlocks(ql int) {
	qNode := ss.bs.TQ.LeafIdx[ql]
	pairs := ss.rowPairs.Near[:0]
	for _, a := range ss.bornNear[ql] {
		lo, hi := ss.bs.TA.PointRange(a)
		for i := lo; i < hi; i++ {
			ss.rowScratch[i] = 0
		}
		pairs = append(pairs, core.NodePair{A: a, B: qNode})
	}
	ss.rowPairs.Near = pairs
	ss.bs.EvalBornNearRange(&ss.rowPairs, 0, len(pairs), ss.rowScratch)
	slots := ss.bornEntrySlot[ql]
	for k, a := range ss.bornNear[ql] {
		lo, hi := ss.bs.TA.PointRange(a)
		cnt := int(hi - lo)
		s := int(slots[k])
		copy(ss.rowBlk[a][s*cnt:(s+1)*cnt], ss.rowScratch[lo:hi])
	}
}

// resumEpolNear rebuilds one driver's near sum from its cached entry
// values in traversal order.
func (ss *Session) resumEpolNear(vl int) {
	var sum float64
	for _, v := range ss.epolNearVal[vl] {
		sum += v
	}
	ss.nearVal[vl] = sum
}

// recomputeEpolFar resums one energy driver's far sum; all inputs (node
// centers, charge bins) are epoch-frozen, so between re-derivations the
// cached value never changes.
func (ss *Session) recomputeEpolFar(vl int) {
	vNode := ss.bs.TA.LeafIdx[vl]
	var sum float64
	for _, u := range ss.epolFar[vl] {
		sum += ss.es.EvalEpolFarPair(u, vNode)
	}
	ss.farVal[vl] = sum
}

func (ss *Session) sumEnergy() float64 {
	var raw float64
	for vl := range ss.nearVal {
		raw += ss.nearVal[vl] + ss.farVal[vl]
	}
	return raw * core.EnergyScale()
}

// resweep recomputes every cached value — far entries, far sums, every
// near block and entry, every radius, every sum — from current state in
// canonical order, without touching the structure. The radius push stays
// tolerance gated (the rule must not depend on resweep cadence), so a
// resweep re-verifies the caches against the session's own semantics.
func (ss *Session) resweep() {
	for ql := range ss.bornFar {
		qLeaf := ss.bs.TQ.LeafIdx[ql]
		vals := ss.bornFarVal[ql][:0]
		for _, a := range ss.bornFar[ql] {
			vals = append(vals, ss.bs.BornFarTerm(a, qLeaf))
		}
		ss.bornFarVal[ql] = vals
	}
	ss.recomputeFarSums()
	for ql := range ss.bornNear {
		ss.recomputeDriverBlocks(ql)
	}
	for _, a := range ss.bs.TA.LeafIdx {
		ss.resumBornRow(a)
	}
	ss.pushRadii(false)
	for vl := range ss.nearVal {
		ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], nil, ss.epolNearVal[vl])
		ss.resumEpolNear(vl)
		ss.recomputeEpolFar(vl)
	}
	ss.energy = ss.sumEnergy()
}

// refresh is the structural-refresh path: refit both trees' node geometry
// to the current points, then rebuild every segment, aggregate and value —
// including a fresh energy solver whose charge bins re-bin against the
// current Born radii — and reset every slack budget.
func (ss *Session) refresh() {
	ss.bs.RefreshGeometry()
	ss.rebuildStructure()
}

// rebuildStructure derives all driver segments, sums and values from the
// current (frozen-as-of-now) node geometry. Used at creation and after
// every refresh.
func (ss *Session) rebuildStructure() {
	sf, ms := ss.opts.SlackFactor, ss.opts.MinSlack
	ta, tq := ss.bs.TA, ss.bs.TQ

	for ql, qLeaf := range tq.LeafIdx {
		c, r := currentBall(tq, qLeaf)
		ss.bs.BuildBornDriverSlack(&ss.scratch, qLeaf, c, r, sf, ms)
		ss.bornNear[ql] = appendANodes(ss.bornNear[ql][:0], ss.scratch.Near)
		ss.bornFar[ql] = appendANodes(ss.bornFar[ql][:0], ss.scratch.Far)
		vals := ss.bornFarVal[ql][:0]
		for _, a := range ss.bornFar[ql] {
			vals = append(vals, ss.bs.BornFarTerm(a, qLeaf))
		}
		ss.bornFarVal[ql] = vals
		ss.refBallRQ[qLeaf] = r
	}
	ss.rebuildBornPartners()
	for _, a := range ta.LeafIdx {
		ss.sizeRowBlocks(a)
	}
	ss.recomputeFarSums()
	for ql := range ss.bornNear {
		ss.recomputeDriverBlocks(ql)
	}
	for _, a := range ta.LeafIdx {
		ss.resumBornRow(a)
	}
	for i := range ss.rTree {
		ss.rTree[i] = ss.bs.BornRadiusFromSums(int32(i), ss.sAtomNear[i]+ss.farTotal[ss.aLeafOf[i]])
	}
	copy(ss.rPushed, ss.rTree)

	// Fresh energy solver: re-bins charges against the current (exact)
	// radii and rebuilds every mirror from the current positions.
	ss.es = core.NewEpolSolver(ta, ss.charges, ss.bs.RadiiToOriginal(ss.rTree), ss.ecfg)
	for vl, aLeaf := range ta.LeafIdx {
		c, r := currentBall(ta, aLeaf)
		ss.es.BuildEpolDriverSlack(&ss.scratch, aLeaf, c, r, sf, ms)
		ss.epolNear[vl] = append(ss.epolNear[vl][:0], ss.scratch.Near...)
		ss.epolFar[vl] = appendANodes(ss.epolFar[vl][:0], ss.scratch.Far)
		ss.epolNearVal[vl] = resizeF64(ss.epolNearVal[vl], len(ss.epolNear[vl]))
		ss.refBallRA[aLeaf] = r
	}
	ss.rebuildEpolPartners()
	for vl := range ss.nearVal {
		ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], nil, ss.epolNearVal[vl])
		ss.resumEpolNear(vl)
		ss.recomputeEpolFar(vl)
	}
	ss.energy = ss.sumEnergy()

	// Reset every slack budget: reference and epoch positions snap to the
	// current points, displacements to zero.
	copy(ss.refPosA, ta.Points)
	copy(ss.epochPosA, ta.Points)
	copy(ss.refPosQ, tq.Points)
	copy(ss.epochPosQ, tq.Points)
	zero(ss.dispRefA)
	zero(ss.dispEpochA)
	zero(ss.dispRefQ)
	zero(ss.dispEpochQ)
}

// --- small helpers -------------------------------------------------------

// currentBall computes the enclosing ball (centroid + max distance) of a
// node's CURRENT points with the same arithmetic octree.RefitAll uses, so
// at creation and right after a refresh it reproduces the frozen node
// geometry bitwise.
func currentBall(t *octree.Tree, node int32) (geom.Vec3, float64) {
	nd := &t.Nodes[node]
	var c geom.Vec3
	for i := nd.Start; i < nd.Start+nd.Count; i++ {
		c = c.Add(t.Points[i])
	}
	if nd.Count > 0 {
		c = c.Scale(1 / float64(nd.Count))
	}
	var r2 float64
	for i := nd.Start; i < nd.Start+nd.Count; i++ {
		if d := t.Points[i].Dist2(c); d > r2 {
			r2 = d
		}
	}
	return c, math.Sqrt(r2)
}

// leafDisp scans one leaf's point range and returns the maximum
// displacement against the reference and epoch snapshots.
func leafDisp(t *octree.Tree, leaf int32, ref, epoch []geom.Vec3) (dRef, dEpoch float64) {
	nd := &t.Nodes[leaf]
	var r2, e2 float64
	for i := nd.Start; i < nd.Start+nd.Count; i++ {
		p := t.Points[i]
		if d := p.Dist2(ref[i]); d > r2 {
			r2 = d
		}
		if d := p.Dist2(epoch[i]); d > e2 {
			e2 = d
		}
	}
	return math.Sqrt(r2), math.Sqrt(e2)
}

// bubbleBreach propagates per-leaf epoch displacements bottom-up (the
// linearized layout puts children after parents, so a reverse sweep sees
// children first) and reports whether any node's maximum point
// displacement exceeds the slack margin of its frozen ball.
func bubbleBreach(t *octree.Tree, leafDisp, nodeDisp []float64, sf, ms float64) bool {
	breach := false
	for n := len(t.Nodes) - 1; n >= 0; n-- {
		nd := &t.Nodes[n]
		d := 0.0
		if nd.Leaf {
			d = leafDisp[n]
		} else {
			for _, ch := range nd.Children {
				if ch != octree.NoChild && nodeDisp[ch] > d {
					d = nodeDisp[ch]
				}
			}
		}
		nodeDisp[n] = d
		if d > core.SlackMargin(nd.Radius, sf, ms) {
			breach = true
		}
	}
	return breach
}

func appendANodes(dst []int32, pairs []core.NodePair) []int32 {
	for _, p := range pairs {
		dst = append(dst, p.A)
	}
	return dst
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
