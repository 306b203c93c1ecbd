// Fixture for the lockorder rule, type-checked as gcs/internal/rt.
// Mirrors the runtime's two ranked mutexes: host.mu ranks before
// Router.mu — acquiring a host lock while holding the router lock is
// the deadlock pattern the rule exists to catch.
package rt

import "sync"

type host struct {
	mu sync.Mutex
}

type Router struct {
	mu sync.RWMutex
}

// documentedOrder is the sanctioned nesting: host before router.
func documentedOrder(h *host, r *Router) {
	h.mu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	h.mu.Unlock()
}

// inverted acquires against the hierarchy.
func inverted(h *host, r *Router) {
	r.mu.Lock()
	h.mu.Lock() // want "acquiring host.mu while holding Router.mu"
	h.mu.Unlock()
	r.mu.Unlock()
}

// sequential releases the router lock before touching the host: legal.
func sequential(h *host, r *Router) {
	r.mu.RLock()
	r.mu.RUnlock()
	h.mu.Lock()
	h.mu.Unlock()
}

// deferredHold: a deferred unlock keeps the router lock held to return,
// so the later host acquisition still violates the order.
func deferredHold(h *host, r *Router) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h.mu.Lock() // want "acquiring host.mu while holding Router.mu"
	h.mu.Unlock()
}

// readHeld: RLock counts as holding.
func readHeld(h *host, r *Router) {
	r.mu.RLock()
	h.mu.Lock() // want "acquiring host.mu while holding Router.mu"
	h.mu.Unlock()
	r.mu.RUnlock()
}

// closureRuns: a function literal runs on its own goroutine with its
// own (empty) held set; the host acquisition inside it is legal even
// though the spawner holds the router lock at the go statement.
func closureRuns(h *host, r *Router) {
	r.mu.Lock()
	go func() {
		h.mu.Lock()
		h.mu.Unlock()
	}()
	r.mu.Unlock()
}

// unranked mutexes nest freely in either direction.
type sampler struct {
	mu sync.Mutex
}

func unrankedOK(s *sampler, h *host, r *Router) {
	s.mu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	h.mu.Lock()
	h.mu.Unlock()
	s.mu.Unlock()
}

// allowEscape: a reviewed exception is suppressed per site but still
// visible to audit mode.
func allowEscape(h *host, r *Router) {
	r.mu.Lock()
	h.mu.Lock() //gcslint:allow lockorder — snapshot path, router lock is try-acquired upstream // want:allowed "acquiring host.mu while holding Router.mu"
	h.mu.Unlock()
	r.mu.Unlock()
}
