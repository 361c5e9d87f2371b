// Package repro is a Go reproduction of Halpern & Moses, "Knowledge and
// Common Knowledge in a Distributed Environment" (PODC 1984; JACM 37(3),
// 1990): an epistemic model-checking library over the runs-and-systems
// model, together with executable versions of the paper's examples and
// machine-checked versions of its theorems.
//
// # Overview
//
// The library has three layers.
//
// The logic layer (re-exported from internal/logic) defines the language:
// ground facts, Boolean connectives, knowledge operators K_i, S_G, E_G,
// D_G, C_G, the temporal variants E^ε/C^ε, E^⋄/C^⋄, E^T/C^T of Sections
// 11–12, and the fixed-point operators ν/μ of Appendix A. Formulas can be
// built with constructors (K, E, C, ...) or parsed from text:
//
//	f := repro.MustParse("C{0,1} (m & K0 m)")
//
// The model layer defines finite epistemic (S5) Kripke models — worlds,
// per-agent indistinguishability partitions, valuations — and evaluates
// formulas over them. Common knowledge is computed from reachability
// components, distributed knowledge from joint-view refinements, and
// fixed points by Knaster–Tarski iteration.
//
// The systems layer implements Section 5: runs, points, local histories,
// clocks, and view functions; protocols as deterministic functions of local
// history; and channel adversaries (reliable, bounded-delay, unreliable,
// asynchronous). A System of runs induces a point model on which the whole
// language — including the run-based temporal operators — is evaluated.
//
// # Quick start
//
//	ok := repro.NewRun("ok", 2, 5)
//	ok.Send(0, 1, 1, 2, "m")
//	lost := repro.NewRun("lost", 2, 5)
//	lost.SendLost(0, 1, 1, "m")
//	sys := repro.MustSystem(ok, lost)
//	pm := sys.Model(repro.CompleteHistoryView, repro.Interpretation{
//		"sent": repro.StablyTrue(repro.SentBy("m")),
//	})
//	holds, _ := pm.HoldsAt(repro.MustParse("K1 sent"), "ok", 3) // true
//	ck, _ := pm.Eval(repro.MustParse("C sent"))                 // empty set
//
// # Experiments
//
// Every worked example and numbered theorem of the paper is regenerated by
// a driver in Experiments / RunExperiments (muddy children, coordinated
// attack, Theorems 5–12, Appendix A and B); README's "Paper section →
// package map" indexes them, and cmd/hmrepro prints every report.
package repro

import (
	"repro/internal/bitset"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/kbp"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
)

// Formula is a node of the epistemic language.
type Formula = logic.Formula

// Agent identifies a processor by index.
type Agent = logic.Agent

// Group is a set of agents; nil means "all agents".
type Group = logic.Group

// WorldSet is a set of worlds (points), the denotation of a formula.
type WorldSet = bitset.Set

// Model is a finite epistemic Kripke model.
type Model = kripke.Model

// Env binds fixed-point variables during evaluation.
type Env = kripke.Env

// Quotient is a batch-evaluation view of a model that runs formulas on the
// bisimulation quotient when worthwhile and maps verdicts back to the
// original worlds; build one with Model.QuotientForEval or
// PointModel.EpistemicQuotient.
type Quotient = kripke.Quotiented

// Run is a single execution observed up to a horizon.
type Run = runs.Run

// System is a set of runs — the paper's identification of a distributed
// system with its possible executions.
type System = runs.System

// PointModel is the Kripke model induced by a System under a view function
// and interpretation; it also evaluates the temporal operators.
type PointModel = runs.PointModel

// Time is a discrete instant.
type Time = runs.Time

// ViewFunc assigns views to processors at points.
type ViewFunc = runs.ViewFunc

// Interpretation maps ground-fact names to truth conditions (the π of
// Section 6).
type Interpretation = runs.Interpretation

// PropFn decides a ground fact at a point.
type PropFn = runs.PropFn

// Protocol is a deterministic function from local views to messages.
type Protocol = protocol.Protocol

// ProtocolFunc adapts a plain function to the Protocol interface.
type ProtocolFunc = protocol.Func

// LocalView is the information a protocol acts on.
type LocalView = protocol.LocalView

// Outgoing is a message a protocol sends.
type Outgoing = protocol.Outgoing

// Channel models the communication medium.
type Channel = protocol.Channel

// Report is the outcome of one reproduction experiment.
type Report = core.Report

// Experiment pairs an experiment id with its driver.
type Experiment = core.Experiment

// Formula construction and parsing.
var (
	// Parse parses the concrete syntax (see MustParse for examples).
	Parse = logic.Parse
	// MustParse parses a statically known formula, panicking on error.
	MustParse = logic.MustParse
	// P builds a ground fact; True/False are constants.
	P     = logic.P
	True  = logic.True
	False = logic.False
	// Neg, Conj, Disj, Imp, Equiv are the Boolean connectives.
	Neg   = logic.Neg
	Conj  = logic.Conj
	Disj  = logic.Disj
	Imp   = logic.Imp
	Equiv = logic.Equiv
	// K, S, E, EK, D, C are the Section 3 knowledge operators.
	K  = logic.K
	S  = logic.S
	E  = logic.E
	EK = logic.EK
	D  = logic.D
	C  = logic.C
	// Eeps/Ceps, Eev/Cev, Et/Ct are the Sections 11–12 variants.
	Eeps = logic.Eeps
	Ceps = logic.Ceps
	Eev  = logic.Eev
	Cev  = logic.Cev
	Et   = logic.Et
	Ct   = logic.Ct
	// GFP and LFP build fixed-point formulas; X names a variable.
	GFP = logic.GFP
	LFP = logic.LFP
	X   = logic.X
	// NewGroup builds an explicit agent group.
	NewGroup = logic.NewGroup
)

// Kripke-model construction.
var (
	// NewModel returns an empty epistemic model.
	NewModel = kripke.NewModel
)

// Runs-and-systems construction.
var (
	// NewRun returns a run with all processors awake from time 0.
	NewRun = runs.NewRun
	// NewSystem and MustSystem collect runs into a system.
	NewSystem  = runs.NewSystem
	MustSystem = runs.MustSystem
	// CompleteHistoryView and ObliviousView are the standard view
	// functions of Section 6.
	CompleteHistoryView = runs.CompleteHistoryView
	ObliviousView       = runs.ObliviousView
	// StablyTrue, SentBy and ReceivedBy build common interpretations.
	StablyTrue = runs.StablyTrue
	SentBy     = runs.SentBy
	ReceivedBy = runs.ReceivedBy
)

// Lost marks an undelivered message.
const Lost = runs.Lost

// Protocol-level system generation.
var (
	// Generate produces the system of all runs of a joint protocol under
	// a channel adversary.
	Generate = protocol.Generate
	// Silent is the protocol that never sends.
	Silent = protocol.Silent
)

// Channel models (Section 8 communication assumptions).
type (
	// Reliable delivers after a fixed delay.
	Reliable = protocol.Reliable
	// BoundedDelay delivers within an uncertain bounded window.
	BoundedDelay = protocol.BoundedDelay
	// Unreliable may lose any message (NG1+NG2).
	Unreliable = protocol.Unreliable
	// Async has unbounded delivery times (NG1'+NG2).
	Async = protocol.Async
	// GenOptions bounds run generation.
	GenOptions = protocol.Options
	// GenConfig is one initial configuration.
	GenConfig = protocol.Config
)

// Internal knowledge consistency (Section 13).
type (
	// Epistemic ascribes beliefs to processors as functions of their
	// local histories.
	Epistemic = consistency.Epistemic
	// BeliefViolation is one point where a belief is false.
	BeliefViolation = consistency.Violation
)

var (
	// CheckKnowledgeConsistent verifies the knowledge axiom for an
	// epistemic interpretation over a point model.
	CheckKnowledgeConsistent = consistency.CheckKnowledgeConsistent
	// CheckInternallyConsistent verifies internal knowledge consistency
	// with respect to a named subsystem.
	CheckInternallyConsistent = consistency.CheckInternallyConsistent
	// FindConsistentSubsystem searches for a witnessing subsystem.
	FindConsistentSubsystem = consistency.FindConsistentSubsystem
	// CommitSystem and EagerCommit build the Section 13 commit example.
	CommitSystem = consistency.CommitSystem
	EagerCommit  = consistency.EagerCommit
)

// Knowledge-based programs (Section 14).
type (
	// KBRule is one knowledge-guarded action.
	KBRule = kbp.Rule
	// KBProgram is a knowledge-based program.
	KBProgram = kbp.Program
	// KBResult is a computed fixed point.
	KBResult = kbp.Result
)

var (
	// KBFixpoint computes a system consistent with a knowledge-based
	// program by iteration.
	KBFixpoint = kbp.Fixpoint
	// BitTransmission is the classic sender/receiver knowledge-based
	// program.
	BitTransmission = kbp.BitTransmission
)

// Experiments returns the paper-reproduction experiments (E1–E17).
func Experiments() []Experiment { return core.All() }

// RunExperiments executes every experiment and returns the reports.
func RunExperiments() ([]*Report, error) { return core.RunAll() }

// MuddyChildren simulates the Section 2 puzzle with n children, the listed
// ones muddy, under the given announcement mode, returning the simulation
// summary. Modes: NoAnnouncement, PublicAnnouncement, PrivateAnnouncement.
var MuddyChildren = muddy.Simulate

// MuddyResult summarizes a muddy children simulation.
type MuddyResult = muddy.SimResult

// MuddyRound records one round of simultaneous answers.
type MuddyRound = muddy.RoundResult

// Announcement modes for MuddyChildren.
const (
	NoAnnouncement      = muddy.NoAnnouncement
	PublicAnnouncement  = muddy.PublicAnnouncement
	PrivateAnnouncement = muddy.PrivateAnnouncement
)
