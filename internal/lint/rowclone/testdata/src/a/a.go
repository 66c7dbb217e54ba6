// Package a reproduces the PR 4 aliased-row bug class: visitor callbacks
// retain borrowed matcher rows whose backing arrays the matcher reuses
// for the next solution.
package a

type Match struct {
	Vertices   []uint32
	EdgeLabels []uint32
}

func (m Match) Clone() Match {
	return Match{
		Vertices:   append([]uint32(nil), m.Vertices...),
		EdgeLabels: append([]uint32(nil), m.EdgeLabels...),
	}
}

// Visitor receives each solution; the row is borrowed for the duration of
// the call.
type Visitor func(Match) bool

type matcher struct{}

// run lends borrowed rows to the visitor.
func (m *matcher) run(visit Visitor) int { return 0 }

// execute delivers owned rows when owned is set (clones on the sequential
// branch, worker copies on the pipeline), so those consumers may retain
// them freely; with owned unset it lends, like run.
func (m *matcher) execute(visit Visitor, owned bool) int { return 0 }

// collectAliased is the PR 4 bug verbatim: every element of out ends up
// sharing one backing array and holds the last solution.
func collectAliased(m *matcher) []Match {
	var out []Match
	m.run(func(mt Match) bool {
		out = append(out, mt) // want `borrowed matcher row stored in a variable captured from outside the callback`
		return true
	})
	return out
}

// collectCloned launders the row before retaining it.
func collectCloned(m *matcher) []Match {
	var out []Match
	m.run(func(mt Match) bool {
		out = append(out, mt.Clone())
		return true
	})
	return out
}

// collectOwned retains rows execute was asked to hand out owned.
func collectOwned(m *matcher) []Match {
	var out []Match
	m.execute(func(mt Match) bool {
		out = append(out, mt)
		return true
	}, true)
	return out
}

// collectLent retains rows execute only lends.
func collectLent(m *matcher) []Match {
	var out []Match
	m.execute(func(mt Match) bool {
		out = append(out, mt) // want `borrowed matcher row stored in a variable captured from outside the callback`
		return true
	}, false)
	return out
}

// keepVertices retains a slice inside the borrowed row — same aliasing,
// one level down.
func keepVertices(m *matcher) [][]uint32 {
	var rows [][]uint32
	m.run(func(mt Match) bool {
		rows = append(rows, mt.Vertices) // want `borrowed matcher row stored in a variable captured from outside the callback`
		return true
	})
	return rows
}

// copiedVertices spreads the elements into fresh memory first.
func copiedVertices(m *matcher) [][]uint32 {
	var rows [][]uint32
	m.run(func(mt Match) bool {
		rows = append(rows, append([]uint32(nil), mt.Vertices...))
		return true
	})
	return rows
}

// sendRow lets the row outlive the callback through a channel.
func sendRow(m *matcher, ch chan Match) {
	m.run(func(mt Match) bool {
		ch <- mt // want `borrowed matcher row sent on a channel`
		return true
	})
}

func sendCloned(m *matcher, ch chan Match) {
	m.run(func(mt Match) bool {
		ch <- mt.Clone()
		return true
	})
}

// aliasEscape hides the escape behind a local alias; the taint follows.
func aliasEscape(m *matcher) []Match {
	var out []Match
	m.run(func(mt Match) bool {
		row := mt
		out = append(out, row) // want `borrowed matcher row stored in a variable captured from outside the callback`
		return true
	})
	return out
}

type holder struct{ last Match }

// fieldStore tucks the borrowed row into a struct that outlives the call.
func fieldStore(m *matcher, h *holder) {
	m.run(func(mt Match) bool {
		h.last = mt // want `borrowed matcher row stored in a struct field`
		return true
	})
}

// goRow hands the row to a goroutine that races the matcher's reuse.
func goRow(m *matcher, sink func(Match)) {
	m.run(func(mt Match) bool {
		go sink(mt) // want `borrowed matcher row passed to a goroutine`
		return true
	})
}

// localUse reads the row and hands it to synchronous callees: no escape,
// no finding.
func localUse(m *matcher, f func(Match)) int {
	n := 0
	m.run(func(mt Match) bool {
		tmp := mt
		f(tmp)
		n += len(mt.Vertices)
		return true
	})
	return n
}

var global []Match

// keep is a named visitor: the analysis follows the identifier to its
// declaration.
func keep(mt Match) bool {
	global = append(global, mt) // want `borrowed matcher row stored in a variable captured from outside the callback`
	return true
}

func useNamed(m *matcher) { m.run(keep) }
