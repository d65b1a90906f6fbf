"""Independent reference implementations used to cross-check the engine.

The best-response oracles are pure Python (math module, no numpy vector
paths) and re-derive rates from first principles, so they share no code
with the package internals they verify. Arithmetic follows the documented
order (unit rate at load 1, divided by the post-join load) so exact float
comparison against the engine is meaningful.

``REFERENCE_RULES`` holds the three attachment rules in their scalar form,
one vehicle per call: ``rule(table, vn, loads)`` with ``loads`` counting
every vehicle but ``vn``. The package's vectorized ``POLICY_KERNELS`` (MR
and RA) and ``LinkTable.strongest_bs`` (MS) must return what they return,
row by row.

``reference_initial_attach`` and ``reference_steady_state`` are the
engine's greedy first pass and randomized best-response loop in their plain
form, one reference-rule call per vehicle or pick; the engine must return
exactly what they return. ``absorption_law`` is the exact law of the fixed
point at which that loop ends. ``check_state`` asserts the loads invariant
of an ``AssociationState``; the tests call it after every layer call.
"""
import itertools
import math

import numpy as np

from v2isim import NO_BS, AssociationState, Policy
from v2isim.engine import _PICK_BATCH

NONE = -1


def check_state(state):
    """Assert that ``state.loads`` counts the vehicles ``state.assignment``
    maps to each station, and that those loads and the unattached vehicles
    add up to every vehicle. Returns the state."""
    counts = np.bincount(state.assignment[state.assignment >= 0],
                         minlength=state.loads.size)
    if not np.array_equal(counts, state.loads):
        raise AssertionError("load counters diverged from assignment")
    unattached = int(np.sum(state.assignment == NO_BS))
    if int(state.loads.sum()) + unattached != state.assignment.size:
        raise AssertionError("loads + unattached != vehicle count")
    return state


def unit_rates(snr_rows, bandwidth_hz, threshold_db):
    """unit_rates[i][j]: rate of vehicle i alone on station j (0 in outage)."""
    out = []
    for row in snr_rows:
        rates = []
        for snr, bw in zip(row, bandwidth_hz):
            if snr < threshold_db:
                rates.append(0.0)
            else:
                rates.append(bw * math.log2(1.0 + 10.0 ** (snr / 10.0)))
        out.append(rates)
    return out


def ms_best(snr_row, threshold_db):
    best = max(range(len(snr_row)), key=lambda j: (snr_row[j], -j))
    # max() keeps the first of equals only with the -j key trick above
    return best if snr_row[best] >= threshold_db else NONE


def mr_best(unit_row, loads):
    best, best_rate = NONE, 0.0
    for j, unit in enumerate(unit_row):
        rate = unit / (loads[j] + 1)
        if rate > best_rate:
            best, best_rate = j, rate
    return best


def ra_best(unit_row, loads, is_lte, required):
    best_lte, best_rate = NONE, 0.0
    for j, unit in enumerate(unit_row):
        if not is_lte[j]:
            continue
        rate = unit / (loads[j] + 1)
        if rate > best_rate:
            best_lte, best_rate = j, rate
    if best_lte != NONE and best_rate > required:
        return best_lte
    return mr_best(unit_row, loads)


def best_response(policy_name, instance, vn, loads):
    snr, units, bw, is_lte, req, threshold = instance
    if policy_name == "MS":
        return ms_best(snr[vn], threshold)
    if policy_name == "MR":
        return mr_best(units[vn], loads)
    return ra_best(units[vn], loads, is_lte, req[vn])


def make_instance(snr_rows, bandwidth_hz, is_lte, required, threshold_db):
    return (snr_rows, unit_rates(snr_rows, bandwidth_hz, threshold_db),
            bandwidth_hz, is_lte, required, threshold_db)


def is_fixed_point(policy_name, instance, assignment):
    """True iff no vehicle would switch when re-evaluated in isolation."""
    n_bs = len(instance[2])
    loads = [0] * n_bs
    for bs in assignment:
        if bs != NONE:
            loads[bs] += 1
    for vn, current in enumerate(assignment):
        if current != NONE:
            loads[current] -= 1
        best = best_response(policy_name, instance, vn, loads)
        if current != NONE:
            loads[current] += 1
        if best != current:
            return False
    return True


def find_fixed_point(policy_name, instance):
    """Exhaustively enumerate assignments; return the first fixed point or
    None when none exists. Only feasible for micro instances."""
    n_vn = len(instance[0])
    n_bs = len(instance[2])
    for assignment in itertools.product(range(-1, n_bs), repeat=n_vn):
        if is_fixed_point(policy_name, instance, list(assignment)):
            return list(assignment)
    return None


def ms_choice(table, vn, loads):
    """Attach to the base station with the highest SNR, load notwithstanding."""
    row = table.snr_db[vn]
    if row.size == 0:
        return NO_BS
    j = int(np.argmax(row))
    return NO_BS if row[j] < table.snr_threshold_db else j


def mr_choice(table, vn, loads):
    """Attach to the base station offering the highest post-join rate."""
    rates = table.unit_rate_bps[vn] / (loads + 1.0)
    if rates.size == 0:
        return NO_BS
    j = int(np.argmax(rates))
    return NO_BS if rates[j] <= 0.0 else j


def ra_choice(table, vn, loads):
    """Prefer the best LTE cell when its post-join rate strictly exceeds the
    vehicle's required rate; otherwise fall back to the max-rate choice over
    all cells."""
    n_lte = table.n_lte
    if n_lte:
        lte_rates = table.unit_rate_bps[vn, :n_lte] / (loads[:n_lte] + 1.0)
        jl = int(np.argmax(lte_rates))
        if lte_rates[jl] > table.required_rate_bps[vn]:
            return jl
    return mr_choice(table, vn, loads)


REFERENCE_RULES = {
    Policy.MS: ms_choice,
    Policy.MR: mr_choice,
    Policy.RA: ra_choice,
}


def reference_initial_attach(link_table, policy):
    """Greedy first pass: vehicles attach in ascending id order, each seeing
    the loads accumulated so far."""
    assignment = np.full(link_table.n_vn, NO_BS, dtype=np.int64)
    loads = np.zeros(link_table.n_bs, dtype=np.int64)
    kernel = REFERENCE_RULES[policy]
    for vn in range(link_table.n_vn):
        bs = kernel(link_table, vn, loads)
        assignment[vn] = bs
        if bs != NO_BS:
            loads[bs] += 1
    return AssociationState(assignment, loads)


def reference_steady_state(state, snapshot, link_table, policy, rng, *,
                           no_change_window_multiplier=3.0,
                           pick_cap_multiplier=50.0):
    """Randomized best-response loop: pick a uniform vehicle, detach it,
    re-run the policy, re-insert.

    Terminates once no pick has changed any assignment for
    ceil(window_multiplier * M) consecutive picks, or at the hard cap of
    ceil(cap_multiplier * M) total picks. Returns (state, picks, converged):
    converged when the window ran out before the cap and no vehicle's rule,
    at the loads without it, moves it.
    """
    m = link_table.n_vn
    if m == 0:
        return state, 0, True
    window = max(1, math.ceil(no_change_window_multiplier * m))
    cap = max(1, math.ceil(pick_cap_multiplier * m))
    kernel = REFERENCE_RULES[policy]
    assignment, loads = state.assignment, state.loads
    picks = 0
    streak = 0
    converged = False
    while picks < cap and not converged:
        batch = rng.integers(0, m, size=min(_PICK_BATCH, cap - picks))
        for vn in batch:
            vn = int(vn)
            old = assignment[vn]
            if old != NO_BS:
                loads[old] -= 1
            new = kernel(link_table, vn, loads)
            assignment[vn] = new
            if new != NO_BS:
                loads[new] += 1
            picks += 1
            if new == old:
                streak += 1
                if streak >= window:
                    converged = True
                    break
            else:
                streak = 0
    for vn in range(m):
        without = loads.copy()
        if assignment[vn] != NO_BS:
            without[assignment[vn]] -= 1
        converged = converged and kernel(link_table, vn, without) == assignment[vn]
    return check_state(state), picks, converged


def absorption_law(link_table, policy):
    """The law of the fixed point at which the randomized best-response
    process ends from the greedy initial attach, as {assignment tuple:
    probability} over the fixed points it reaches; None when the process can
    reach a closed class of assignments without a fixed point (RA can).

    The process picks a vehicle uniformly and moves it to its
    ``REFERENCE_RULES`` best response at the loads without it. The
    assignments reachable from the start are enumerated, the fixed points
    (every pick a no-op) are absorbing, and the absorption probabilities B
    solve (I - Q) B = R, with Q the moves between the other assignments and
    R the moves from them onto the fixed points. Only feasible for micro
    instances."""
    rule, m = REFERENCE_RULES[policy], link_table.n_vn
    start = tuple(reference_initial_attach(link_table, policy).assignment.tolist())
    moves, todo = {}, [start]
    while todo:
        state = todo.pop()
        if state in moves:
            continue
        loads = np.zeros(link_table.n_bs, dtype=np.int64)
        for bs in state:
            if bs != NO_BS:
                loads[bs] += 1
        moves[state] = []
        for vn, bs in enumerate(state):
            without = loads.copy()
            if bs != NO_BS:
                without[bs] -= 1
            moves[state].append(state[:vn] + (int(rule(link_table, vn, without)),)
                                + state[vn + 1:])
        todo.extend(moves[state])
    fixed = [s for s, succ in moves.items() if all(t == s for t in succ)]
    # a closed class without a fixed point exists iff some reachable
    # assignment reaches no fixed point
    before = {s: set() for s in moves}
    for s, succ in moves.items():
        for t in succ:
            before[t].add(s)
    ends, todo = set(fixed), list(fixed)
    while todo:
        for s in before[todo.pop()] - ends:
            ends.add(s)
            todo.append(s)
    if len(ends) < len(moves):
        return None
    col = {s: k for k, s in enumerate(fixed)}
    if start in col:
        return {start: 1.0}
    transient = [s for s in moves if s not in col]
    row = {s: i for i, s in enumerate(transient)}
    q = np.zeros((len(transient), len(transient)))
    r = np.zeros((len(transient), len(fixed)))
    for s in transient:
        for t in moves[s]:
            if t in row:
                q[row[s], row[t]] += 1.0 / m
            else:
                r[row[s], col[t]] += 1.0 / m
    b = np.linalg.solve(np.eye(len(transient)) - q, r)
    return dict(zip(fixed, b[row[start]].tolist()))
