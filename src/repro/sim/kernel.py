"""The discrete-event simulation kernel.

Two schedulers share one contract — a priority queue of
``(time, key, callback, args)`` entries, where ``key`` folds the
scheduling priority and a monotonically increasing sequence number into
a single integer (``priority * 2**52 + sequence``).  Ties at the same
instant therefore break on priority first, then insertion order, and the
deterministic tie-break makes every experiment in this repository
reproducible bit-for-bit from its seed.

:class:`Simulator` (the default) is a **calendar queue**: a flat window
of ``wheel_buckets`` time buckets of ``bucket_width`` seconds each.
Near-future events are appended to their bucket in O(1); only the bucket
currently being drained is heap-ordered (heapified once, when the cursor
reaches it).  Events beyond the window land in an *overflow* binary heap
and are redistributed into buckets when the window rolls forward.  Pop
order is identical to a single global heap because

- bucket index is a monotone function of time (``int((t - t0) / w)``),
  so events in bucket *i* all precede events in bucket *j > i* and all
  precede everything in overflow (which holds only times beyond the
  window), and
- within a bucket, entries pop in exact ``(time, key)`` order via the
  same tuple comparison the old global heap used.

:class:`HeapSimulator` preserves the previous single-binary-heap
scheduler, byte-for-byte; the equivalence suite replays experiments
under both and diffs the records.  Set ``REPRO_KERNEL=heap`` in the
environment to make ``Simulator(...)`` build the heap variant (used for
A/B benchmarking and the golden-replay tests).

Time is a float measured in **seconds** of simulated time.  All latencies
in the paper are quoted in milliseconds; helpers in
:mod:`repro.topology.configs` convert.
"""

from __future__ import annotations

import heapq
import math
import os
import random

from .errors import SimulationDeadlock
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["HeapSimulator", "Simulator"]

# bound once at import: the scheduling fast path runs millions of times
# per experiment, and the attribute lookups dominate its cost
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify

# Priority occupies the high bits of the heap tie-break key; 2**52
# sequence numbers (~4.5e15 events) fit below it without collision.
_PRIORITY_STRIDE = 1 << 52

_INF = float("inf")

#: environment variable selecting the scheduler built by ``Simulator()``
KERNEL_ENV = "REPRO_KERNEL"

# Default calendar geometry: 4096 buckets of 2**-9 s (~2 ms) give an
# 8 s window.  Service/network events (sub-millisecond..millisecond) and
# retransmission timers (seconds) land in the window; only multi-second
# think times overflow.  ~2 ms buckets hold a handful of entries each at
# the repository's event rates, so the per-bucket heap work stays tiny
# while per-bucket bookkeeping amortizes over several events (see
# docs/PERF.md for the measured trade-off).
_BUCKET_WIDTH = 2.0 ** -9
_WHEEL_BUCKETS = 4096


class Simulator:
    """A deterministic discrete-event simulator (calendar-queue kernel).

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  Components
        should draw randomness via :attr:`rng` (or a stream forked with
        :meth:`fork_rng`) so a single seed reproduces an entire run.
    bus:
        Optional :class:`~repro.sim.instrument.EventBus`.  Substrate
        components capture ``sim.bus`` at construction and publish
        instrumentation events to it; ``None`` (the default) keeps every
        emit site on its one-branch disabled path.
    bucket_width, wheel_buckets:
        Calendar geometry (seconds per bucket, buckets per window).
        The defaults fit the repository's workloads; tests shrink them
        to exercise window rollover cheaply.  Scheduling semantics are
        identical for every geometry.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> hits = []
    >>> sim.call_in(2.0, hits.append, "two")
    >>> sim.call_in(1.0, hits.append, "one")
    >>> sim.run()
    >>> hits
    ['one', 'two']
    """

    def __new__(cls, *args, **kwargs):
        if cls is Simulator:
            choice = os.environ.get(KERNEL_ENV)
            if choice == "heap":
                cls = HeapSimulator
            elif choice not in (None, "", "wheel"):
                raise ValueError(
                    f"{KERNEL_ENV}={choice!r}: expected 'wheel' or 'heap'"
                )
        return object.__new__(cls)

    def __init__(self, seed=0, bus=None, bucket_width=None,
                 wheel_buckets=None):
        self.now = 0.0
        self._sequence = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self._stopped = False
        #: number of callbacks executed so far (cheap progress metric).
        self.executed_events = 0
        #: instrumentation bus (None = instrumentation off).
        self.bus = bus
        # --- calendar state -------------------------------------------
        width = float(bucket_width if bucket_width is not None
                      else _BUCKET_WIDTH)
        size = int(wheel_buckets if wheel_buckets is not None
                   else _WHEEL_BUCKETS)
        if width <= 0.0:
            raise ValueError(f"bucket_width must be > 0, got {width}")
        if size < 1:
            raise ValueError(f"wheel_buckets must be >= 1, got {size}")
        self._width = width
        self._inv_width = 1.0 / width
        self._size = size
        self._span = width * size
        #: start of the current window; bucket i covers
        #: [t0 + i*width, t0 + (i+1)*width)
        self._t0 = 0.0
        self._buckets = [[] for _ in range(size)]
        #: index of the bucket being drained.  Invariant: every bucket
        #: below the cursor is empty, and the cursor bucket is always a
        #: valid heap (future buckets are unordered append lists,
        #: heapified when the cursor reaches them).
        self._cursor = 0
        #: binary heap of entries at/after the end of the window;
        #: invariant: all overflow times are >= t0 + span.
        self._overflow = []
        if bus is not None:
            bus.bind(self)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _time_error(self, when):
        """The error for an absolute time that is in the past, NaN or
        infinite (one message shape on both kernels)."""
        reason = "in the past" if when < self.now else "not a finite time"
        return ValueError(
            f"cannot schedule at t={when} ({reason}): "
            f"current time is {self.now}"
        )

    def _delay_error(self, delay):
        """The error for a negative or NaN delay."""
        kind = "negative" if delay < 0 else "non-finite"
        return ValueError(
            f"cannot schedule a {kind} delay ({delay!r}): "
            f"current time is {self.now}"
        )

    def call_at(self, when, callback, *args, priority=0):
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        Scheduling in the past, at NaN or at infinity is an error;
        scheduling at ``now`` runs the callback later in the same
        instant, after already-queued entries.
        ``priority`` breaks ties before the insertion sequence (lower runs
        first) and is used sparingly, e.g. so monitors sample *after* the
        instant's state changes settle.
        """
        # `not >=` also rejects NaN, which every comparison fails
        if not when >= self.now:
            raise self._time_error(when)
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        offset = when - self._t0
        if offset < self._span:
            # the window can sit ahead of ``now`` after an idle jump, so
            # clamp pre-window times into bucket 0 of the live window
            index = int(offset * self._inv_width) if offset > 0.0 else 0
            cursor = self._cursor
            if index > cursor:
                self._buckets[index].append((when, sequence, callback, args))
            elif index == cursor:
                _heappush(self._buckets[index],
                          (when, sequence, callback, args))
            else:
                # resurrect an already-swept (empty) bucket: a bare
                # append keeps it a valid single-entry heap
                self._cursor = index
                self._buckets[index].append((when, sequence, callback, args))
        else:
            if when == _INF:
                # the window could never roll forward onto it
                self._sequence -= 1
                raise self._time_error(when)
            _heappush(self._overflow, (when, sequence, callback, args))

    def call_in(self, delay, callback, *args, priority=0):
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Pushes the entry directly instead of re-wrapping the call
        through :meth:`call_at` — this is the kernel's hottest entry
        point (every timeout, service completion and network hop).
        """
        if not delay >= 0:
            raise self._delay_error(delay)
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        when = self.now + delay
        offset = when - self._t0
        if offset < self._span:
            index = int(offset * self._inv_width) if offset > 0.0 else 0
            cursor = self._cursor
            if index > cursor:
                self._buckets[index].append((when, sequence, callback, args))
            elif index == cursor:
                _heappush(self._buckets[index],
                          (when, sequence, callback, args))
            else:
                self._cursor = index
                self._buckets[index].append((when, sequence, callback, args))
        else:
            if when == _INF:
                # the window could never roll forward onto it
                self._sequence -= 1
                raise self._time_error(when)
            _heappush(self._overflow, (when, sequence, callback, args))

    def call_at_batch(self, times, callback):
        """Schedule ``callback()`` (no arguments) at each time in
        ``times``, in order, as if by repeated ``call_at``.

        The bulk entry point for array-generated arrival streams
        (:class:`~repro.workload.openloop.ArrayOpenLoop`): one call
        schedules a whole batch with the per-call validation and
        sequence numbering of :meth:`call_at`, minus the per-call
        overhead.  ``times`` must be an iterable of plain floats.
        """
        now = self.now
        sequence = self._sequence
        t0 = self._t0
        span = self._span
        inv_width = self._inv_width
        buckets = self._buckets
        overflow = self._overflow
        push = _heappush
        try:
            for when in times:
                if not when >= now:
                    raise self._time_error(when)
                sequence += 1
                offset = when - t0
                if offset < span:
                    index = int(offset * inv_width) if offset > 0.0 else 0
                    cursor = self._cursor
                    if index > cursor:
                        buckets[index].append((when, sequence, callback, ()))
                    elif index == cursor:
                        push(buckets[index], (when, sequence, callback, ()))
                    else:
                        self._cursor = index
                        buckets[index].append((when, sequence, callback, ()))
                else:
                    if when == _INF:
                        sequence -= 1
                        raise self._time_error(when)
                    push(overflow, (when, sequence, callback, ()))
        finally:
            self._sequence = sequence

    # ------------------------------------------------------------------
    # event / process factories
    # ------------------------------------------------------------------
    def event(self, name=None):
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that succeeds ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def any_of(self, events):
        """Event triggering when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Event triggering when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def process(self, generator, name=None):
        """Run ``generator`` as a simulated process.

        The generator may ``yield`` events (to wait for them), floats (as a
        shorthand for ``timeout``), or other processes (to join them).
        Returns the :class:`~repro.sim.process.Process`, which is itself an
        event that triggers with the generator's return value.
        """
        return Process(self, generator, name=name)

    def fork_rng(self, label):
        """Create an independent, deterministic random stream.

        Streams are derived from the simulator seed and a string label, so
        adding a new consumer of randomness does not perturb the draws seen
        by existing components.
        """
        return random.Random(f"{self.seed}/{label}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _activate(self):
        """Advance the cursor to the next non-empty bucket (heapifying
        it on arrival) and return that bucket, rolling the window
        forward over the overflow heap as needed.  Returns ``None``
        when no events remain anywhere.

        Lazy-normalizing state this way keeps :meth:`call_at` branchless
        on the common path; it is called only when the active bucket has
        drained, so its cost amortizes to O(1) per event plus one bucket
        sweep per window.
        """
        buckets = self._buckets
        size = self._size
        cursor = self._cursor
        while True:
            while cursor < size:
                bucket = buckets[cursor]
                if bucket:
                    self._cursor = cursor
                    if len(bucket) > 1:
                        _heapify(bucket)
                    return bucket
                cursor += 1
            overflow = self._overflow
            if not overflow:
                # park on the last (empty) bucket so indexing stays valid
                self._cursor = size - 1
                return None
            # window rollover: slide forward one span — or, when the
            # next event is beyond even the *next* window, jump the
            # window straight to it so idle stretches cost nothing
            span = self._span
            t0 = self._t0 + span
            first = overflow[0][0]
            if first - t0 >= span:
                t0 = first
            horizon = t0 + span
            if horizon <= first:
                # so far out (above ~7e16 s at the default geometry)
                # that adding the span rounds back: the window cannot
                # advance, so it moves just the head entries to bucket 0
                t0 = first
                horizon = math.nextafter(first, _INF)
            inv_width = self._inv_width
            pop = _heappop
            while overflow and overflow[0][0] < horizon:
                entry = pop(overflow)
                index = int((entry[0] - t0) * inv_width)
                if index >= size:
                    index = size - 1  # float guard at the window edge
                buckets[index].append(entry)
            self._t0 = t0
            cursor = 0

    def _next_entry(self):
        """The next ``(time, key, callback, args)`` entry to execute,
        without removing it (``None`` if the kernel is empty).  May
        lazily advance the cursor/window, which never changes order."""
        bucket = self._buckets[self._cursor] or self._activate()
        return bucket[0] if bucket else None

    def step(self):
        """Execute the single next scheduled callback. Returns its time."""
        bucket = self._buckets[self._cursor]
        if not bucket:
            bucket = self._activate()
            if bucket is None:
                raise IndexError("step from an empty kernel")
        when, _key, callback, args = _heappop(bucket)
        self.now = when
        self.executed_events += 1
        callback(*args)
        return when

    def peek(self):
        """Time of the next scheduled callback, or ``None`` if empty."""
        bucket = self._buckets[self._cursor] or self._activate()
        return bucket[0][0] if bucket else None

    def run(self, until=None, error_on_starvation=False):
        """Run until no events remain or simulated time reaches ``until``.

        When ``until`` is given, time is advanced exactly to ``until`` at
        the end of the run so samplers and tests see a well-defined final
        clock.  With ``error_on_starvation`` a premature empty kernel
        raises :class:`SimulationDeadlock` instead of silently ending.
        """
        self._stopped = False
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        # the dispatch loop is inlined (rather than calling step()) so
        # each of the millions of events per run costs one bucket pop +
        # one call; an instance-level step override (e.g. KernelTracer)
        # must still observe every event, so it forces step dispatch.
        #
        # The active bucket is held in a local: callbacks can never
        # schedule below the cursor (their times are >= now, which maps
        # at or above the cursor bucket), so the local only goes stale
        # when it empties — exactly when the inner loop re-fetches.
        exhausted = False
        buckets = self._buckets
        pop = _heappop
        if "step" in self.__dict__:
            step = self.step
            while not self._stopped:
                bucket = buckets[self._cursor] or self._activate()
                if not bucket:
                    exhausted = True
                    break
                if until is not None and bucket[0][0] > until:
                    break
                step()
        elif until is None:
            while not self._stopped:
                bucket = buckets[self._cursor]
                if not bucket:
                    bucket = self._activate()
                    if bucket is None:
                        break
                while bucket:
                    when, _key, callback, args = pop(bucket)
                    self.now = when
                    self.executed_events += 1
                    callback(*args)
                    if self._stopped:
                        break
        else:
            done = False
            while not (self._stopped or done):
                bucket = buckets[self._cursor]
                if not bucket:
                    bucket = self._activate()
                    if bucket is None:
                        exhausted = True
                        break
                while bucket:
                    if bucket[0][0] > until:
                        done = True
                        break
                    when, _key, callback, args = pop(bucket)
                    self.now = when
                    self.executed_events += 1
                    callback(*args)
                    if self._stopped:
                        break
        if until is not None and not self._stopped:
            if exhausted and error_on_starvation:
                raise SimulationDeadlock(
                    f"event heap empty at t={self.now}, target was {until}"
                )
            self.now = max(self.now, until)

    def stop(self):
        """Stop the current :meth:`run` after the executing callback."""
        self._stopped = True

    @property
    def pending(self):
        """Number of scheduled-but-unexecuted callbacks (O(buckets))."""
        return sum(map(len, self._buckets)) + len(self._overflow)

    def __repr__(self):
        return (
            f"<{type(self).__name__} t={self.now:.6f} "
            f"pending={self.pending} executed={self.executed_events}>"
        )


class HeapSimulator(Simulator):
    """The previous kernel: one global binary heap of event entries.

    Scheduling semantics (pop order, tie-breaks, error messages) are
    identical to :class:`Simulator`; only the container differs —
    O(log n) push/pop on a single heap versus the calendar's O(1)
    bucket appends.  Kept as the reference implementation for the
    scheduler-equivalence suite and for A/B benchmarking
    (``REPRO_KERNEL=heap``).
    """

    def __init__(self, seed=0, bus=None):
        # a 1-bucket zero-cost calendar keeps attribute shape identical;
        # the heap methods below never touch it
        super().__init__(seed=seed, bus=bus, bucket_width=1.0,
                         wheel_buckets=1)
        self._heap = []

    # -- scheduling ----------------------------------------------------
    def call_at(self, when, callback, *args, priority=0):
        if not self.now <= when < _INF:
            raise self._time_error(when)
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        _heappush(self._heap, (when, sequence, callback, args))

    def call_in(self, delay, callback, *args, priority=0):
        if not delay >= 0:
            raise self._delay_error(delay)
        when = self.now + delay
        if when == _INF:
            raise self._time_error(when)
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        _heappush(self._heap, (when, sequence, callback, args))

    def call_at_batch(self, times, callback):
        now = self.now
        sequence = self._sequence
        heap = self._heap
        push = _heappush
        try:
            for when in times:
                if not now <= when < _INF:
                    raise self._time_error(when)
                sequence += 1
                push(heap, (when, sequence, callback, ()))
        finally:
            self._sequence = sequence

    # -- execution -----------------------------------------------------
    def _next_entry(self):
        heap = self._heap
        return heap[0] if heap else None

    def step(self):
        when, _key, callback, args = _heappop(self._heap)
        self.now = when
        self.executed_events += 1
        callback(*args)
        return when

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def run(self, until=None, error_on_starvation=False):
        self._stopped = False
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        heap = self._heap
        if "step" in self.__dict__:
            step = self.step
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    break
                step()
        elif until is None:
            pop = _heappop
            while heap and not self._stopped:
                when, _key, callback, args = pop(heap)
                self.now = when
                self.executed_events += 1
                callback(*args)
        else:
            pop = _heappop
            while heap and not self._stopped:
                if heap[0][0] > until:
                    break
                when, _key, callback, args = pop(heap)
                self.now = when
                self.executed_events += 1
                callback(*args)
        if until is not None and not self._stopped:
            if not self._heap and error_on_starvation:
                raise SimulationDeadlock(
                    f"event heap empty at t={self.now}, target was {until}"
                )
            self.now = max(self.now, until)

    @property
    def pending(self):
        return len(self._heap)
