"""MIG-to-RM3 compilation for the PLiM computer.

Reimplements the compiler of [Soeken et al., DAC'16] — node *selection*
(which computable MIG node to schedule next) and node *translation* (how to
realise one majority node with RM3 instructions) — with the endurance hooks
of the reproduced paper threaded through:

* the destination/allocation decisions consult the
  :class:`~repro.plim.allocator.RramAllocator` (one allocator for every
  machine; a crossbar is its one-cell word lines) whose policy implements
  the minimum/maximum write count strategies;
* the selection order is pluggable (:mod:`repro.core.selection` provides
  the DAC'16 and the endurance-aware Algorithm 3 strategies).

Two steps
---------
A compilation first *schedules* the graph, then *translates* it gate by
gate in that order.

* :func:`schedule` orders the gates.  The strategy states its key once
  per graph as a rank vector and a releasing weight over the graph's
  :class:`~repro.mig.views.FanoutView`; the scheduler prices each
  computable gate inline as one packed integer, counting its released
  children from flat child arrays over reference counts it decrements
  itself, and keeps those integers in a heap.  A key is priced once,
  when its gate becomes computable, and is never re-priced on pop (see
  :func:`_schedule` for why).  Topological order needs no heap: it is
  the live-gate list.  A schedule never depends on the allocator, so it
  is a pure function of (graph, strategy): it is memoized on the fanout
  view, and every allocation policy, write cap and machine compiled
  from one graph with one strategy shares it.
* :meth:`_Compilation.run` translates the gates in that order in one
  loop that classifies each gate's fanins, emits its repairs and its RM3
  inline, and frees devices at their last use.  The allocator surface it
  uses is ``writes`` (the compile-time tally, which the loop charges
  directly), ``w_max``, ``request``, ``release`` and ``new_cell``.

Both loops check the stage deadline every :data:`CHECKPOINT_GATES`
gates.

The program, too, is memoized on the fanout view, keyed by (strategy,
allocation strategy, input protection, architecture, write cap); a run
cut short by the deadline stores nothing.  A capped compile whose
uncapped program is memoized and never writes a device ``w_max`` times
returns that program: when every final write count is below the cap,
each of the three places the cap is read decides as if there were
none.  The direct-``Z`` test ``writes < w_max`` holds at
every step; every device a ``request(headroom)`` returns receives at
least *headroom* more writes, so the uncapped choice satisfies ``count
<= w_max - headroom`` and the capped search, walking the same pool in
the same order, stops at it; and no release reaches the cap, so nothing
is retired.  A program that writes some device exactly ``w_max`` times
is compiled again.

Cost model (Section III of the paper)
-------------------------------------
A majority node ``<a b c>`` costs a single RM3 when one fanin can serve as
the second operand ``Q`` for free (a complemented edge or a constant — RM3
inverts ``Q`` intrinsically) and another fanin can be *overwritten* as the
destination ``Z`` (a non-complemented edge to a value with no remaining
readers, stored in a device that may still be written).  Every violation
costs **two extra instructions and one extra RRAM**:

* missing free ``Q``: invert a fanin into a helper device
  (write 1 + RM3);
* missing destination: copy a fanin into a requested device
  (write 0/1 + RM3); a constant fanin reduces this to a single
  initialisation write.

The translator picks the cheapest of the six role assignments of the
three fanins, so those rules emerge from a small cost table rather than
a case cascade.  The cost table — and the device-allocation machinery
behind the destination decisions — belong to the *target machine*: the
compiler consumes a :class:`repro.arch.Architecture` (cost model, array
geometry, endurance semantics) and emits a program for that machine.
The default architecture is the paper's unbounded wear-tracked
crossbar, which reproduces the historic behaviour exactly.

A fanin's role costs depend only on its *class*: a constant, a
complemented edge, a plain edge whose device may be overwritten in place
(direct ``Z``), or any other plain edge (copied ``Z``).  So the cheapest
assignments of each of the 64 class triples are tabulated once per cost
model (:func:`_role_table`), ranked by ``(extra instructions, extra
devices, Z kind)``: cheapest repair first, then an in-place overwrite
before a constant or copied destination.  Node translation classifies
its three fanins and reads the table.  Only when several tied
assignments overwrite a direct ``Z`` under the minimum write count
strategy does it compare the destinations' write counts, breaking ties
by ``(writes, qi, zi)``.  So the choice is the first cheapest assignment
in the DAC'16 enumeration order.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product
from typing import List, Optional, Tuple

from ..mig.graph import Mig
from ..mig.signal import is_complemented, node_of
from ..resilience.timeouts import checkpoint
from .isa import OP_CONST0, OP_CONST1, Program


# Role kinds used by the assignment enumeration.
_Q_FREE = 0  # complemented edge or constant: RM3's intrinsic inversion
_Q_INVERT = 1  # helper inversion required (+2 instructions, +1 device)
_Z_DIRECT = 0  # overwrite the fanin's own device
_Z_CONST = 1  # initialise a requested device with the constant (+1)
_Z_COPY = 2  # copy/copy-invert into a requested device (+2, +1 device)
_P_FREE = 0  # constant or plain stored value
_P_INVERT = 1  # helper inversion required (+2 instructions, +1 device)

# Fanin classes of node translation.
_CONST = 0  # constant edge of either polarity
_COMPLEMENTED = 1  # complemented edge to a stored value
_DIRECT = 2  # plain edge whose device may be overwritten in place
_COPY = 3  # any other plain edge

#: ``(Q cost, Z kind, P cost)`` of a fanin per class.
_CLASS_ROLES = (
    (_Q_FREE, _Z_CONST, _P_FREE),
    (_Q_FREE, _Z_COPY, _P_INVERT),
    (_Q_INVERT, _Z_DIRECT, _P_FREE),
    (_Q_INVERT, _Z_COPY, _P_FREE),
)

#: The six (Q, Z, P) role assignments of a gate's three fanins, in the
#: enumeration order of the DAC'16 translator.
_ROLES = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

#: Gates between two deadline checkpoints of scheduling and translation.
CHECKPOINT_GATES = 256


@lru_cache(maxsize=None)
def _role_table(cost) -> Tuple[Tuple[int, Tuple[Tuple[int, int, int], ...]], ...]:
    """The cheapest role assignments per fanin-class triple under *cost*.

    Entry ``16 * c0 + 4 * c1 + c2`` for fanin classes ``c0, c1, c2`` is
    ``(z_kind, candidates)``: the destination kind the cheapest
    assignments share, and those of them that the minimum write count
    strategy must still compare, in enumeration order.
    """
    z_instructions = (0, cost.z_const_instructions, cost.z_copy_instructions)
    z_cells = (0, cost.z_request_cells, cost.z_request_cells)
    table = []
    for classes in product(_CLASS_ROLES, repeat=3):
        ranked = []
        for qi, zi, pi in _ROLES:
            q_cost = classes[qi][0]
            z_kind = classes[zi][1]
            p_cost = classes[pi][2]
            rank = (
                cost.q_invert_instructions * q_cost
                + z_instructions[z_kind]
                + cost.p_invert_instructions * p_cost,
                cost.q_invert_cells * q_cost
                + z_cells[z_kind]
                + cost.p_invert_cells * p_cost,
                z_kind,
            )
            ranked.append((rank, (qi, zi, pi)))
        best = min(rank for rank, _ in ranked)
        # Of the tied assignments, only a direct Z's write count can
        # still decide: keep the first assignment per destination then,
        # else the first one.
        candidates = {}
        for rank, roles in ranked:
            if rank == best and (best[2] == _Z_DIRECT or not candidates):
                candidates.setdefault(roles[1], roles)
        table.append((best[2], tuple(candidates.values())))
    return tuple(table)


def schedule(mig: Mig, selection=None) -> Tuple[int, ...]:
    """The order in which the compiler translates *mig*'s live gates.

    *selection* is a strategy object (see :mod:`repro.core.selection`)
    or ``None`` for plain topological order.  The order is memoized on
    the graph's :class:`~repro.mig.views.FanoutView`, keyed by the
    strategy object itself, so it is rebuilt after any mutation of the
    graph.  A run cut short by the stage deadline stores nothing.
    """
    view = mig.fanout_view()
    order = view.schedules.get(selection)
    if order is None:
        order = _schedule(mig, view, selection)
        view.schedules[selection] = order
    return order


def _schedule(mig: Mig, view, selection) -> Tuple[int, ...]:
    """One selection run: a heap of packed integer keys.

    Node ``v`` with rank ``r`` and releasing count ``k`` under weight
    ``w`` is keyed ``(r - w * k) * n + v`` for ``n`` nodes, which orders
    like the pair ``(r - w * k, v)``; the node is ``key % n``.

    A key is priced once, when its node becomes computable, and never
    revalidated.  While the node waits it holds a reference to each
    child, so a child's count never falls below 1 and ``k`` can only
    grow: with ``w >= 0`` a stale key is only ever too large.  Re-pricing
    the popped node would give a key below every key left in the heap,
    so it would be popped again at once; the order is the same.  A
    negative weight would break that argument and raises ``ValueError``.
    """
    rank, weight = (None, 0) if selection is None else selection.ranks(view)
    if weight < 0:
        raise ValueError(f"releasing weight must be >= 0, got {weight}")
    gates = mig._live_gates()
    if rank is None:
        # Every gate's children have smaller ids, so the smallest
        # unscheduled live gate is always computable.
        return tuple(gates)
    fanins = mig._fanins
    n = len(fanins)
    # Flat child arrays; refs[0] starts at 0 and only falls, so the
    # constant never counts as released.
    child_a = [0] * n
    child_b = [0] * n
    child_c = [0] * n
    refs = list(view.ref_counts)
    refs[0] = 0
    pending = [0] * n
    heap: List[int] = []
    for node in gates:
        a, b, c = fanins[node]
        a >>= 1
        b >>= 1
        c >>= 1
        child_a[node] = a
        child_b[node] = b
        child_c[node] = c
        # Live gates are exactly the nodes with fanins, and every fanin
        # of a live gate is live.
        count = (
            (fanins[a] is not None)
            + (fanins[b] is not None)
            + (fanins[c] is not None)
        )
        if count:
            pending[node] = count
        else:
            heap.append(
                (rank[node] - weight * (
                    (refs[a] == 1) + (refs[b] == 1) + (refs[c] == 1)
                )) * n + node
            )
    heapify(heap)  # keys are distinct: pops follow key order only

    fanouts = view.fanouts
    order: List[int] = []
    while heap:
        node = heappop(heap) % n
        a = child_a[node]
        b = child_b[node]
        c = child_c[node]
        if not len(order) % CHECKPOINT_GATES:
            checkpoint()
        order.append(node)
        refs[a] -= 1
        refs[b] -= 1
        refs[c] -= 1
        for parent in fanouts[node]:
            count = pending[parent] - 1
            pending[parent] = count
            if not count:
                heappush(heap, (rank[parent] - weight * (
                    (refs[child_a[parent]] == 1)
                    + (refs[child_b[parent]] == 1)
                    + (refs[child_c[parent]] == 1)
                )) * n + parent)
    if len(order) != len(gates):
        raise RuntimeError(
            f"scheduled {len(order)} of {len(gates)} gates — "
            "candidate bookkeeping is inconsistent"
        )
    return tuple(order)


class PlimCompiler:
    """Compiles MIGs into PLiM programs.

    Parameters
    ----------
    selection:
        A strategy object stating its key terms through ``ranks(view)``
        (see :mod:`repro.core.selection`); ``None`` selects
        plain topological order (the naive baseline).
    allocation:
        ``"naive"`` (LIFO free list) or ``"min_write"`` (the paper's
        minimum write count strategy).
    w_max:
        Optional maximum write count per device (the paper's maximum
        write count strategy); devices reaching it are retired.
    allow_pi_overwrite:
        Whether devices pre-loaded with primary inputs may be reused as
        destinations once their value is dead (the DAC'16 compiler's
        aggressive reuse; disable for ablations).
    arch:
        The target machine model — a :class:`repro.arch.Architecture`,
        a registry name, or ``None`` for the ambient selection
        (``$REPRO_ARCH``, else the paper's ``endurance`` machine).  The
        architecture supplies the translation cost table and the device
        allocator matching its array geometry, and refuses allocation
        policies it cannot implement (e.g. ``min_write`` on the
        wear-counter-free ``dac16`` machine).
    """

    def __init__(
        self,
        selection=None,
        allocation: str = "naive",
        w_max: Optional[int] = None,
        allow_pi_overwrite: bool = True,
        arch=None,
    ) -> None:
        self.selection = selection
        self.allocation = allocation
        self.w_max = w_max
        self.allow_pi_overwrite = allow_pi_overwrite
        self.arch = arch

    def compile(self, mig: Mig) -> Program:
        """Translate *mig* into a :class:`~repro.plim.isa.Program`.

        The program is memoized on the graph's fanout view, and a write
        cap the uncapped program never reaches answers with that program
        (see the module docstring).  Callers must not mutate the result.
        """
        from ..arch import resolve_architecture

        arch = resolve_architecture(self.arch)
        # Built first: it refuses invalid caps and unsupported policies.
        allocator = arch.make_allocator(self.allocation, self.w_max)
        programs = mig.fanout_view().programs
        key = (
            self.selection,
            self.allocation,
            self.allow_pi_overwrite,
            arch,
        )
        w_max = self.w_max
        program = programs.get(key + (w_max,))
        if program is None:
            uncapped = None if w_max is None else programs.get(key + (None,))
            if uncapped is not None and max(
                uncapped.write_counts(), default=0
            ) < w_max:
                program = uncapped
            else:
                program = _Compilation(
                    mig,
                    selection=self.selection,
                    allocator=allocator,
                    allow_pi_overwrite=self.allow_pi_overwrite,
                    cost=arch.cost,
                ).run()
            programs[key + (w_max,)] = program
        return program


class _Compilation:
    """State of one translation: devices, allocator and emitted code."""

    def __init__(
        self,
        mig: Mig,
        selection,
        allocator,
        allow_pi_overwrite: bool,
        cost,
    ) -> None:
        self.mig = mig
        self.selection = selection
        self.alloc = allocator
        self.allow_pi_overwrite = allow_pi_overwrite
        #: Nodes whose devices are never overwritten nor reused: with
        #: input protection on (``allow_pi_overwrite=False``) input data
        #: survives the whole program, not merely its node's computation.
        self.protected = frozenset() if allow_pi_overwrite else frozenset(
            mig.pis()
        )
        self.min_write = allocator.strategy == "min_write"
        self._roles = _role_table(cost)
        self.refs: List[int] = list(mig.fanout_view().ref_counts)
        self.cell_of: List[Optional[int]] = [None] * mig.num_nodes
        self.instructions: List[Tuple[int, int, int]] = []

    # -- main loop ----------------------------------------------------------

    def run(self) -> Program:
        mig = self.mig
        alloc = self.alloc
        order = schedule(mig, self.selection)

        pi_cells = []
        for node in mig.pis():
            cell = alloc.new_cell()
            self.cell_of[node] = cell
            pi_cells.append(cell)

        # Node translation, one gate per iteration, with every name the
        # loop touches bound locally: classify the three fanins, read the
        # role table, emit the repairs and the gate's RM3 (charging each
        # write to the allocator's tally directly), then free the devices
        # of values at their last use.
        fanins = mig._fanins  # every scheduled node is a gate
        roles = self._roles
        min_write = self.min_write
        protected = self.protected
        refs = self.refs
        cell_of = self.cell_of
        instructions = self.instructions
        emit = instructions.append
        writes = alloc.writes
        w_max = alloc.w_max
        request = alloc.request
        release = alloc.release
        for index, node in enumerate(order):
            if not index % CHECKPOINT_GATES:
                checkpoint()
            signals = fanins[node]

            # Classify each fanin; the class triple indexes the role table.
            key = 0
            for signal in signals:
                child = signal >> 1
                if child == 0:
                    kind = _CONST
                elif signal & 1:
                    kind = _COMPLEMENTED
                else:
                    cell = cell_of[child]
                    if (
                        refs[child] == 1
                        and cell is not None
                        and (w_max is None or writes[cell] < w_max)
                        and child not in protected
                    ):
                        kind = _DIRECT
                    else:
                        kind = _COPY
                key = key << 2 | kind
            z_kind, candidates = roles[key]
            if len(candidates) > 1 and min_write:
                # The less-worn direct destination; min keeps the first of
                # equal write counts, so ties stay in enumeration order.
                qi, zi, pi = min(
                    candidates,
                    key=lambda r: writes[cell_of[signals[r[1]] >> 1]],
                )
            else:
                qi, zi, pi = candidates[0]

            # Destination Z holds the contribution of its fanin.  Constant
            # operands: const_operand(bit) == OP_CONST0 - bit.
            signal = signals[zi]
            overwritten = signal >> 1
            if z_kind == _Z_DIRECT:
                z_addr = cell_of[overwritten]
            else:
                overwritten = None
                if z_kind == _Z_CONST:  # init + final RM3
                    z_addr = request(2)
                    emit((OP_CONST0 - signal, OP_CONST1 + signal, z_addr))
                    writes[z_addr] += 1
                else:  # _Z_COPY: copy or copy-invert, + final RM3
                    src = cell_of[signal >> 1]
                    z_addr = request(3)
                    if signal & 1:
                        instructions += (
                            (OP_CONST1, OP_CONST0, z_addr),
                            (OP_CONST0, src, z_addr),  # MAJ(0, ~x, 1) = ~x
                        )
                    else:
                        instructions += (
                            (OP_CONST0, OP_CONST1, z_addr),
                            (src, OP_CONST0, z_addr),  # MAJ(x, 1, 0) = x
                        )
                    writes[z_addr] += 2

            # Second operand Q: RM3 applies ~Q, so Q must hold the
            # *inverse* of the fanin's contribution; a plain stored value
            # is inverted into a helper device (MAJ(0, ~x, 1) = ~x).
            signal = signals[qi]
            q_temp = None
            if signal < 2:
                q_op = OP_CONST1 + signal
            elif signal & 1:
                q_op = cell_of[signal >> 1]
            else:
                q_op = q_temp = request(2)
                instructions += (
                    (OP_CONST1, OP_CONST0, q_temp),
                    (OP_CONST0, cell_of[signal >> 1], q_temp),
                )
                writes[q_temp] += 2

            # First operand P holds the contribution directly.
            signal = signals[pi]
            p_temp = None
            if signal < 2:
                p_op = OP_CONST0 - signal
            elif not signal & 1:
                p_op = cell_of[signal >> 1]
            else:
                p_op = p_temp = request(2)
                instructions += (
                    (OP_CONST1, OP_CONST0, p_temp),
                    (OP_CONST0, cell_of[signal >> 1], p_temp),
                )
                writes[p_temp] += 2

            emit((p_op, q_op, z_addr))
            writes[z_addr] += 1

            # Consume fanin references; free devices at their last use.
            for signal in signals:
                child = signal >> 1
                if child:
                    refs[child] -= 1
                    if not refs[child]:
                        cell = cell_of[child]
                        cell_of[child] = None
                        if (
                            child != overwritten
                            and cell is not None
                            and child not in protected
                        ):
                            release(cell)
            if q_temp is not None:
                release(q_temp)
            if p_temp is not None:
                release(p_temp)
            cell_of[node] = z_addr

        po_cells = self._materialize_outputs()

        program = Program(
            instructions=instructions,
            num_cells=alloc.num_cells,
            pi_cells=pi_cells,
            po_cells=po_cells,
            name=mig.name,
        )
        program.validate()
        program.memoize_write_counts()
        return program

    # -- outputs ------------------------------------------------------------

    def _materialize_outputs(self) -> List[int]:
        """Pin every primary output to a device holding its plain value.

        Complemented outputs need an explicit inversion (the same +2 cost
        as any other complement violation); constant outputs need a single
        initialisation write.  Cells are shared between outputs wanting
        the same signal.
        """
        alloc = self.alloc
        writes = alloc.writes
        instructions = self.instructions
        cell_of = self.cell_of
        const_cells: dict = {}
        inverted_cells: dict = {}
        po_cells: List[int] = []
        for s in self.mig.pos():
            node = node_of(s)
            if node == 0:
                if s not in const_cells:
                    cell = const_cells[s] = alloc.request(1)
                    instructions.append((OP_CONST0 - s, OP_CONST1 + s, cell))
                    writes[cell] += 1
                po_cells.append(const_cells[s])
            elif not is_complemented(s):
                cell = cell_of[node]
                assert cell is not None, f"output node {node} has no device"
                po_cells.append(cell)
            else:
                if s not in inverted_cells:
                    src = cell_of[node]
                    assert src is not None, f"output node {node} has no device"
                    cell = inverted_cells[s] = alloc.request(2)
                    instructions += (
                        (OP_CONST1, OP_CONST0, cell),
                        (OP_CONST0, src, cell),
                    )
                    writes[cell] += 2
                po_cells.append(inverted_cells[s])
                self.refs[node] -= 1
                if self.refs[node] == 0:
                    cell = cell_of[node]
                    cell_of[node] = None
                    if cell is not None and node not in self.protected:
                        alloc.release(cell)
        return po_cells
