package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"otif/internal/core"
	"otif/internal/obs"
)

// The job manager runs long pipeline operations (extract, stream) in the
// background on behalf of HTTP clients. Each job owns a bounded ring
// buffer of structured events — its state transitions plus every
// obs.Progress event the operation emits — and an SSE reader holds only a
// cursor into it: the seq of the last event it sent. Cancellation goes
// through the job's context, so it lands exactly where the pipeline's
// cooperative cancellation does: clip boundaries for extraction, with a
// *core.PartialError recording how far the work got.

// JobState is one node of the job lifecycle state machine:
//
//	pending → running → done
//	                  ↘ failed
//	                  ↘ canceled
type JobState string

// The job states. Done, Failed and Canceled are terminal.
const (
	JobPending  JobState = "pending"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether s is a final state.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobEvent is one entry of a job's event stream: either a lifecycle
// transition (Kind "state", with State and, on failure, Error) or a
// pipeline progress event as the pipeline emitted it ("clip" from an
// extract job, "ingest.clip" from a stream job). Seq numbers are per-job,
// contiguous from 1; a gap at an SSE client means the bounded ring evicted
// events faster than the client read them.
type JobEvent struct {
	Seq int64 `json:"seq"`
	obs.Event
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`
}

// eventState is the kind of a job's lifecycle events.
const eventState obs.EventKind = "state"

// PartialInfo mirrors core.PartialError for job records: how many units
// (clips or iterations) a canceled or failed operation completed.
type PartialInfo struct {
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// JobView is the JSON-serializable snapshot of a job returned by the
// /jobs endpoints.
type JobView struct {
	ID       string            `json:"id"`
	Kind     string            `json:"kind"`
	Params   map[string]string `json:"params,omitempty"`
	State    JobState          `json:"state"`
	Created  time.Time         `json:"created"`
	Started  *time.Time        `json:"started,omitempty"`
	Finished *time.Time        `json:"finished,omitempty"`
	Error    string            `json:"error,omitempty"`
	Partial  *PartialInfo      `json:"partial,omitempty"`
	Result   any               `json:"result,omitempty"`
	// Events counts all events ever emitted; Dropped counts those the
	// bounded ring has already evicted.
	Events  int64 `json:"events"`
	Dropped int64 `json:"dropped"`
}

// Job is one background operation. All fields are guarded by mu; HTTP
// handlers read through View and since.
type Job struct {
	id     string
	kind   string
	params map[string]string

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	partial  *PartialInfo
	result   any

	cancel    context.CancelFunc
	cancelled bool // cancel was requested by a client

	ring    []JobEvent // the newest jobEvents events, oldest first
	seq     int64
	changed chan struct{} // closed, and replaced, by every publish
	done    chan struct{} // closed on entering a terminal state
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// View snapshots the job for JSON serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.id,
		Kind:    j.kind,
		Params:  j.params,
		State:   j.state,
		Created: j.created,
		Error:   j.errMsg,
		Result:  j.result,
		Events:  j.seq,
		Dropped: j.seq - int64(len(j.ring)),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.partial != nil {
		p := *j.partial
		v.Partial = &p
	}
	return v
}

// publishLocked appends one event to the ring, evicting the oldest beyond
// capacity, and wakes every reader waiting on changed. It never waits on a
// reader: one that falls behind the ring sees a gap in Seq. Caller holds
// j.mu.
func (j *Job) publishLocked(e JobEvent) {
	j.seq++
	e.Seq = j.seq
	if len(j.ring) >= jobEvents {
		n := copy(j.ring, j.ring[1:])
		j.ring = j.ring[:n]
	}
	j.ring = append(j.ring, e)
	close(j.changed)
	j.changed = make(chan struct{})
}

// since returns a copy of the retained events after seq, oldest first, and
// a channel the next publish closes.
func (j *Job) since(seq int64) ([]JobEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The ring holds seqs j.seq-len(j.ring)+1 through j.seq.
	after := min(max(j.seq-seq, 0), int64(len(j.ring)))
	return append([]JobEvent(nil), j.ring[len(j.ring)-int(after):]...), j.changed
}

// transition moves the job to state, stamps timestamps, publishes the
// "state" event and logs it. errMsg rides along for failure states. The
// state and its event change under one lock, so a reader that sees a
// terminal state also finds its event in the ring.
func (j *Job) transition(state JobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	now := time.Now()
	switch state {
	case JobRunning:
		j.started = now
	case JobDone, JobFailed, JobCanceled:
		j.finished = now
		j.errMsg = errMsg
	}
	j.publishLocked(JobEvent{Event: obs.Event{Kind: eventState}, State: state, Error: errMsg})
	j.mu.Unlock()
	logInfo("otifd: job state", "job", j.id, "kind", j.kind, "state", string(state), "error", errMsg)
}

// progress publishes obs.Progress events to the job's event stream. Run
// puts it on the runner's context; events arrive concurrently from clip
// workers, and j.mu serializes them.
func (j *Job) progress(e obs.Event) {
	j.mu.Lock()
	j.publishLocked(JobEvent{Event: e})
	j.mu.Unlock()
}

// Runner executes one job kind. Its context is canceled by
// POST /jobs/{id}/cancel (and by manager shutdown) and carries the job's
// progress (obs.ProgressFrom), already wired into the job's event stream;
// the returned value becomes the job record's result field. Returning an
// error wrapping context.Canceled after a cancel request yields state
// "canceled"; any other error yields "failed". A *core.PartialError in the
// chain is surfaced as the job's partial record either way.
type Runner func(ctx context.Context, job *Job) (any, error)

// retainedJobs is how many finished jobs the manager remembers. Pending and
// running jobs are always kept; of the terminal ones only the newest this
// many, and an older one answers 404 like an id that never existed.
const retainedJobs = 64

// jobEvents is how many events each job's ring retains for its readers:
// an extract or stream job emits one per clip, so a reader that falls
// further behind sees a gap in Seq rather than holding the daemon's memory.
const jobEvents = 256

// Manager owns job submission, lookup and cancellation.
type Manager struct {
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu      sync.Mutex
	runners map[string]Runner
	jobs    map[string]*Job
	order   []string
	next    int64
}

// NewManager returns a manager with no job kinds registered.
func NewManager() *Manager {
	ctx, stop := context.WithCancel(context.Background())
	return &Manager{
		ctx:     ctx,
		stop:    stop,
		runners: map[string]Runner{},
		jobs:    map[string]*Job{},
	}
}

// Register installs the runner for a job kind (e.g. "extract", "stream").
func (m *Manager) Register(kind string, r Runner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runners[kind] = r
}

// Kinds lists the registered job kinds, sorted.
func (m *Manager) Kinds() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.runners))
	for k := range m.runners {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Submit creates a job of the given kind and starts it on its own
// goroutine. It returns an error for unregistered kinds and after Close.
func (m *Manager) Submit(kind string, params map[string]string) (*Job, error) {
	m.mu.Lock()
	r, ok := m.runners[kind]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: unknown job kind %q", kind)
	}
	if m.ctx.Err() != nil {
		m.mu.Unlock()
		return nil, errors.New("serve: manager closed")
	}
	m.next++
	// The job's context exists before its goroutine starts, so a cancel
	// request arriving while the job is still pending is never lost.
	ctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		id:      fmt.Sprintf("job-%d", m.next),
		kind:    kind,
		params:  params,
		state:   JobPending,
		created: time.Now(),
		cancel:  cancel,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	m.wg.Add(1)
	go m.run(ctx, cancel, j, r)
	return j, nil
}

// forgetOldLocked drops the oldest terminal jobs beyond retainedJobs. It
// runs as each job finishes. Caller holds m.mu.
func (m *Manager) forgetOldLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= retainedJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if terminal > retainedJobs && m.jobs[id].State().Terminal() {
			delete(m.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// run drives one job through its lifecycle.
func (m *Manager) run(ctx context.Context, cancel context.CancelFunc, j *Job, r Runner) {
	defer m.wg.Done()
	defer cancel()

	j.transition(JobRunning, "")
	res, err := r(obs.WithProgress(ctx, j.progress), j)

	var pe *core.PartialError
	if errors.As(err, &pe) {
		j.mu.Lock()
		j.partial = &PartialInfo{Stage: pe.Stage, Done: pe.Done, Total: pe.Total}
		j.mu.Unlock()
	}
	j.mu.Lock()
	j.result = res
	wasCancelled := j.cancelled
	j.mu.Unlock()
	switch {
	case err == nil:
		j.transition(JobDone, "")
	case wasCancelled && errors.Is(err, context.Canceled):
		j.transition(JobCanceled, err.Error())
	default:
		j.transition(JobFailed, err.Error())
	}
	m.mu.Lock()
	m.forgetOldLocked()
	m.mu.Unlock()
	close(j.done)
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns snapshots of every job in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// Cancel requests cooperative cancellation of a running job. Canceling a
// job already in a terminal state is a no-op.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("serve: no job %q", id)
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	return nil
}

// Close cancels every running job and waits for their goroutines to
// drain.
func (m *Manager) Close() {
	m.stop()
	m.wg.Wait()
}
