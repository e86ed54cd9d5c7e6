// Package chanrule is the golden corpus for the chanrule analyzer:
// close-by-receiver, send/close after a close on some path, channel
// re-make reopening, and sends while a mutex is held.
package chanrule

import "sync"

// --- close-by-receiver ---

type worker struct {
	out chan int
}

// produce sends and closes: the sender side owns the close.
func (w *worker) produce(n int) {
	for i := 0; i < n; i++ {
		w.out <- i
	}
	close(w.out)
}

type drainer struct {
	in chan int
}

// drain only receives; closing here panics the next sender.
func (d *drainer) drain() int {
	t := 0
	for v := range d.in {
		t += v
	}
	close(d.in) // want "close of d\\.in in a function that receives from it"
	return t
}

// closeOnly is the done-channel broadcast idiom: close without any
// receive in the closing function is fine.
type lifecycle struct {
	done chan struct{}
}

func (l *lifecycle) stop() {
	close(l.done)
}

func (l *lifecycle) wait() {
	<-l.done
}

// --- send/close after close on some path ---

func sendAfterClose(ch chan int) {
	close(ch)
	ch <- 1 // want "send on ch, which may already be closed"
}

func doubleClose(ch chan int) {
	close(ch)
	close(ch) // want "close of ch, which may already be closed"
}

// branchClose closes on one path only; the merge point still may-sees
// the close.
func branchClose(ch chan int, done bool) {
	if done {
		close(ch)
	}
	ch <- 1 // want "send on ch, which may already be closed \\(close at chanrule\\.go:\\d+\\)"
}

// remake reopens: a fresh channel value is not the closed one.
func remake(ch chan int) chan int {
	close(ch)
	ch = make(chan int, 4)
	ch <- 1
	return ch
}

// sendThenClose is the normal shutdown order.
func sendThenClose(ch chan int) {
	ch <- 1
	close(ch)
}

// --- no send while a mutex is held ---

type notifier struct {
	mu    sync.Mutex
	state int //sched:guardedby mu
	wake  chan struct{}
	buf   chan struct{}
	subs  map[int]chan int
}

func newNotifier() *notifier {
	return &notifier{
		wake: make(chan struct{}),
		buf:  make(chan struct{}, 1),
		subs: map[int]chan int{},
	}
}

// bump blocks every other critical section of mu until a receiver
// arrives at wake.
func (n *notifier) bump() {
	n.mu.Lock()
	n.state++
	n.wake <- struct{}{} // want "send on n\\.wake while holding n\\.mu"
	n.mu.Unlock()
}

// bumpBuffered: a capacity does not license the send; whether it can
// block depends on how full the buffer is.
func (n *notifier) bumpBuffered() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state++
	n.buf <- struct{}{} // want "send on n\\.buf while holding n\\.mu"
}

// bumpSelect: a select case is a send too, default or not.
func (n *notifier) bumpSelect() {
	n.mu.Lock()
	n.state++
	select {
	case n.buf <- struct{}{}: // want "send on n\\.buf while holding n\\.mu"
	default:
	}
	n.mu.Unlock()
}

// publish: the channel comes out of a map under the lock, and no make
// site says anything about its capacity.
func (n *notifier) publish(id, v int) {
	n.mu.Lock()
	ch := n.subs[id]
	delete(n.subs, id)
	if ch != nil {
		ch <- v // want "send on ch while holding n\\.mu"
	}
	n.mu.Unlock()
}

// localMutex: any held mutex counts, annotated or not.
func localMutex(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	ch <- 1 // want "send on ch while holding mu"
	mu.Unlock()
}

// tryLocked holds the mutex on the TryLock success edge only.
func (n *notifier) tryLocked() {
	if n.mu.TryLock() {
		n.buf <- struct{}{} // want "send on n\\.buf while holding n\\.mu"
		n.mu.Unlock()
	}
	n.buf <- struct{}{}
}

// publishAfterUnlock is the fix: look up under the lock, send after it.
func (n *notifier) publishAfterUnlock(id, v int) {
	n.mu.Lock()
	ch := n.subs[id]
	delete(n.subs, id)
	n.mu.Unlock()
	if ch != nil {
		ch <- v
	}
}

// bumpAfterUnlock: the send is outside the critical section.
func (n *notifier) bumpAfterUnlock() {
	n.mu.Lock()
	n.state++
	n.mu.Unlock()
	n.wake <- struct{}{}
}

// spawnUnderLock: a closure is its own scope, and its send runs
// without the lock held.
func (n *notifier) spawnUnderLock() {
	n.mu.Lock()
	go func() { n.wake <- struct{}{} }()
	n.mu.Unlock()
}
