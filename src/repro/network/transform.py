"""Network restructuring transforms (the SIS command set stand-in).

Implements the operations the paper's preprocessing scripts rely on:

* :func:`sweep` — fold constants, buffers, and inverters into their readers;
* :func:`eliminate` — collapse low-value nodes into their fanouts;
* :func:`simplify` — espresso-lite each node's local cover;
* :func:`extract` — kernel- and cube-based common-divisor extraction;
* :func:`resubstitute` — algebraic resubstitution of existing nodes;
* :func:`decompose` — technology decomposition into bounded-fanin
  AND/OR/literal gates (the input form for one-to-one mapping);
* :func:`collapse_network` — flatten to two-level (small networks only).

All transforms preserve functional equivalence; the test suite checks this
with bit-parallel simulation after every transform.
"""

from __future__ import annotations

from repro.boolean.bitset import MAX_TABLE_VARS
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.divide import divide
from repro.boolean.factor import (
    FactorAnd,
    FactorConst,
    FactorForm,
    FactorLit,
    FactorOr,
    factor,
)
from repro.boolean.function import BooleanFunction
from repro.boolean.kernels import kernels
from repro.boolean.minimize import minimize
from repro.errors import NetworkError
from repro.network.network import BooleanNetwork

# ----------------------------------------------------------------------
# Name-based algebraic helpers
# ----------------------------------------------------------------------


def divide_functions(
    f: BooleanFunction, d: BooleanFunction, divisor_name: str
) -> BooleanFunction | None:
    """Rewrite ``f`` as ``Q * divisor_name + R`` if the division is nonzero.

    Returns the rewritten function (support-trimmed, mentioning
    ``divisor_name``) or None when the quotient is empty or the rewrite does
    not reduce the literal count.
    """
    if not all(f.depends_on(v) for v in d.support_names()):
        return None  # no cube of f holds every divisor literal: quotient 0
    union = list(f.variables)
    for v in d.variables:
        if v not in union:
            union.append(v)
    f_r = f.rebased(union).cover
    d_r = d.rebased(union).cover
    quotient, remainder = divide(f_r, d_r)
    if quotient.is_zero():
        return None
    extended = union + [divisor_name]
    nvars = len(extended)
    lit = 1 << (nvars - 1)
    cubes = [Cube(q.pos | lit, q.neg, nvars) for q in _grow(quotient, nvars)]
    cubes.extend(_grow(remainder, nvars))
    rewritten = BooleanFunction(Cover(cubes, nvars), extended).trimmed()
    if rewritten.num_literals >= f.num_literals:
        return None
    return rewritten


def _grow(cover: Cover, nvars: int) -> list[Cube]:
    return [Cube(c.pos, c.neg, nvars) for c in cover.cubes]


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------


def sweep(network: BooleanNetwork) -> int:
    """Fold constant/buffer/inverter nodes into readers; drop dead nodes.

    Nodes driving primary outputs are kept even when trivial (a BLIF output
    must remain a named signal).  Returns the number of nodes removed.
    """
    removed = 0
    readers = _reader_map(network)
    changed = True
    while changed:
        changed = False
        for node in list(network.node_names):
            trivial = _trivial_replacement(network.function(node))
            if trivial is None:
                continue
            node_readers = sorted(readers[node])
            if not node_readers and not network.is_output(node):
                _remove(network, readers, node)
                removed += 1
                changed = True
                continue
            if not node_readers:
                continue  # trivial node driving only a PO: keep
            for reader in node_readers:
                new_func = network.function(reader).substitute(node, trivial)
                _rewire(network, readers, reader, new_func)
            if not network.is_output(node):
                _remove(network, readers, node)
                removed += 1
            changed = True
    removed += network.cleanup()
    return removed


def _reader_map(network: BooleanNetwork) -> dict[str, set[str]]:
    """The fanout map as sets, for :func:`_rewire` and :func:`_remove`.

    Both keep it up to date: recomputing the full fanout map after every
    fold or elimination is O(V*E) overall and dominates on large networks.
    """
    return {signal: set(nodes) for signal, nodes in network.fanout_map().items()}


def _rewire(
    network: BooleanNetwork,
    readers: dict[str, set[str]],
    reader: str,
    new_func: BooleanFunction,
) -> None:
    for fanin in network.fanins(reader):
        readers[fanin].discard(reader)
    network.set_function(reader, new_func)
    for fanin in new_func.variables:
        readers[fanin].add(reader)


def _remove(
    network: BooleanNetwork, readers: dict[str, set[str]], node: str
) -> None:
    for fanin in network.fanins(node):
        readers[fanin].discard(node)
    del readers[node]
    network.remove_node(node)


def _trivial_replacement(func: BooleanFunction) -> BooleanFunction | None:
    """The function to substitute for a constant/buffer/inverter node."""
    cover = func.cover.scc()
    if cover.is_zero():
        return BooleanFunction.constant(False)
    if cover.num_cubes == 1 and cover.cubes[0].is_full():
        return BooleanFunction.constant(True)
    if cover.num_cubes == 1 and cover.cubes[0].num_literals == 1:
        ((var, phase),) = cover.cubes[0].literals()
        name = func.variables[var]
        lit = Cover.literal(0, phase, 1)
        return BooleanFunction(lit, (name,))
    return None


# ----------------------------------------------------------------------
# Eliminate
# ----------------------------------------------------------------------


def eliminate(network: BooleanNetwork, threshold: int = 0) -> int:
    """Collapse nodes whose elimination value is below ``threshold``.

    The value of a node n with u uses and l factored literals approximates
    the literals saved by *keeping* it: ``(u - 1) * (l - 1) - 1`` (SIS's
    classic metric).  Nodes driving primary outputs are never eliminated.
    Returns the number of nodes eliminated.
    """
    from repro.boolean.factor import factored_literal_count

    eliminated = 0
    readers = _reader_map(network)
    # (reader, node) -> the (reader, node) functions of a substitution
    # refused for the cube cap.  Substitution is a pure function of the two,
    # so while both are the same objects the refusal stands.
    refused: dict[tuple[str, str], tuple[BooleanFunction, BooleanFunction]] = {}
    changed = True
    while changed:
        changed = False
        for node in network.topological_order():
            if network.is_output(node) or not network.has_node(node):
                continue
            func = network.function(node)
            node_readers = sorted(readers[node])
            if not node_readers:
                continue
            uses = len(node_readers)
            lits = factored_literal_count(func.cover)
            value = (uses - 1) * (lits - 1) - 1
            if value >= threshold:
                continue
            candidates = {}
            for reader in node_readers:
                reader_func = network.function(reader)
                seen = refused.get((reader, node))
                if seen and seen[0] is reader_func and seen[1] is func:
                    break
                candidate = reader_func.substitute(node, func)
                if candidate.num_cubes > _ELIMINATE_CUBE_CAP:
                    refused[(reader, node)] = (reader_func, func)
                    break
                candidates[reader] = candidate
            else:
                for reader, candidate in candidates.items():
                    _rewire(network, readers, reader, candidate)
                _remove(network, readers, node)
                eliminated += 1
                changed = True
    network.cleanup()
    return eliminated


_ELIMINATE_CUBE_CAP = 64  # refuse substitutions that blow a node up


# ----------------------------------------------------------------------
# Simplify
# ----------------------------------------------------------------------


def simplify(network: BooleanNetwork) -> int:
    """Two-level minimize every node cover; returns literals saved."""
    saved = 0
    # minimize() starts from the SCC form, whose cube order (a tie-break,
    # see Cover.scc) its result depends on: covers whose SCC forms have the
    # same cubes in the same order minimize identically.
    minimized_of: dict[tuple, Cover] = {}
    for node in list(network.node_names):
        func = network.function(node)
        # Wider covers would leave minimize()'s truth-table path.
        if func.nvars > MAX_TABLE_VARS or func.num_cubes > _SIMPLIFY_CUBE_CAP:
            continue
        key = (func.cover.scc().cubes, func.nvars)
        minimized = minimized_of.get(key)
        if minimized is None:
            minimized = minimized_of[key] = minimize(func.cover)
        if minimized.num_literals < func.num_literals:
            saved += func.num_literals - minimized.num_literals
            network.set_function(
                node, BooleanFunction(minimized, func.variables).trimmed()
            )
        else:
            network.set_function(node, func.trimmed())
    return saved


_SIMPLIFY_CUBE_CAP = 64


# ----------------------------------------------------------------------
# Kernel / cube extraction
# ----------------------------------------------------------------------


def _kernel_signature(cover: Cover, variables: tuple[str, ...]) -> frozenset:
    """Name-based canonical form of a kernel for cross-node matching."""
    sig = set()
    for cube in cover.cubes:
        sig.add(
            frozenset(
                (variables[var], phase) for var, phase in cube.literals()
            )
        )
    return frozenset(sig)


def _signature_to_function(signature: frozenset) -> BooleanFunction:
    names = sorted({name for cube in signature for name, _ in cube})
    index = {n: i for i, n in enumerate(names)}
    # Sorted: a frozenset of name-keyed cubes iterates in string-hash
    # order, which changes with PYTHONHASHSEED.
    cubes = sorted(
        Cube.from_literals({index[n]: ph for n, ph in cube}, len(names))
        for cube in signature
    )
    return BooleanFunction(Cover(cubes, len(names)), names)


def extract(
    network: BooleanNetwork,
    max_rounds: int = 50,
    min_saving: int = 1,
) -> int:
    """Greedy common-kernel extraction across the whole network.

    Each round enumerates kernels of every (not too large) node, scores each
    distinct kernel by the literals its extraction would save, extracts the
    best one as a new node, and rewrites every node it divides.  Stops when
    no kernel saves at least ``min_saving`` literals.  Returns the number of
    new nodes created.
    """
    created = 0
    for _ in range(max_rounds):
        candidates: dict[frozenset, list[str]] = {}
        for node in network.node_names:
            func = network.function(node)
            if func.num_cubes < 2 or func.num_cubes > _EXTRACT_CUBE_CAP:
                continue
            if func.nvars > _EXTRACT_VAR_CAP:
                continue
            for kern in kernels(func.cover, include_self=False):
                if kern.cover.num_cubes < 2:
                    continue
                sig = _kernel_signature(kern.cover, func.variables)
                candidates.setdefault(sig, []).append(node)
        # Rank candidates roughly, then evaluate the exact literal saving of
        # the most promising few by performing the divisions.
        ranked = []
        for sig, users in candidates.items():
            distinct = sorted(set(users))
            if len(distinct) < 2:
                continue
            divisor_lits = sum(len(c) for c in sig)
            ranked.append((len(distinct) * divisor_lits, sig, distinct))
        ranked.sort(key=lambda item: -item[0])
        best_sig = None
        best_saving = min_saving - 1
        for _, sig, distinct in ranked[:8]:
            divisor = _signature_to_function(sig)
            saving = -divisor.num_literals
            for node in distinct:
                if node in divisor.variables:
                    continue
                rewritten = divide_functions(
                    network.function(node), divisor, "\0probe"
                )
                if rewritten is not None:
                    saving += network.function(node).num_literals - (
                        rewritten.num_literals
                    )
            if saving > best_saving:
                best_saving = saving
                best_sig = sig
        if best_sig is None:
            break
        divisor = _signature_to_function(best_sig)
        new_name = network.fresh_name("k")
        network.add_node(new_name, divisor)
        hits = 0
        for node in list(network.node_names):
            if node == new_name:
                continue
            if node in divisor.variables:
                continue
            rewritten = divide_functions(
                network.function(node), divisor, new_name
            )
            if rewritten is not None and new_name in rewritten.variables:
                network.set_function(node, rewritten)
                hits += 1
        if hits < 2:
            # Not actually profitable: undo.
            for node in list(network.node_names):
                if node == new_name:
                    continue
                func = network.function(node)
                if new_name in func.variables:
                    network.set_function(node, func.substitute(new_name, divisor))
            network.remove_node(new_name)
            break
        created += 1
    network.cleanup()
    return created


_EXTRACT_CUBE_CAP = 40
_EXTRACT_VAR_CAP = 24


def extract_cubes(
    network: BooleanNetwork, max_rounds: int = 50, min_saving: int = 1
) -> int:
    """Greedy common-*cube* extraction (two-literal divisors).

    Complements kernel extraction: finds literal pairs that co-occur in many
    cubes across the network, extracts each as a fresh AND node.
    """
    created = 0
    for _ in range(max_rounds):
        # Cube occurrences of each literal pair, in first-seen order.
        pair_counts: dict[frozenset, int] = {}
        for node in network.node_names:
            func = network.function(node)
            if func.num_cubes > _EXTRACT_CUBE_CAP:
                continue
            for cube in func.cover.cubes:
                lits = [(func.variables[v], ph) for v, ph in cube.literals()]
                for i in range(len(lits)):
                    for j in range(i + 1, len(lits)):
                        key = frozenset((lits[i], lits[j]))
                        pair_counts[key] = pair_counts.get(key, 0) + 1
        best_key = None
        best_uses = 0
        for key, occurrences in pair_counts.items():
            saving = occurrences * 2 - occurrences - 2  # 2 lits -> 1 lit each
            if occurrences >= 2 and saving >= min_saving and occurrences > best_uses:
                best_uses = occurrences
                best_key = key
        if best_key is None:
            break
        divisor = _signature_to_function(frozenset({best_key}))
        new_name = network.fresh_name("c")
        network.add_node(new_name, divisor)
        for node in list(network.node_names):
            if node == new_name or node in divisor.variables:
                continue
            rewritten = divide_functions(
                network.function(node), divisor, new_name
            )
            if rewritten is not None and new_name in rewritten.variables:
                network.set_function(node, rewritten)
        created += 1
    network.cleanup()
    return created


# ----------------------------------------------------------------------
# Resubstitution
# ----------------------------------------------------------------------


def resubstitute(network: BooleanNetwork) -> int:
    """Algebraic resubstitution: reuse existing nodes as divisors.

    For every pair (target, divisor) with compatible supports, attempt weak
    division and keep rewrites that reduce literal count without creating a
    cycle.  Returns the number of successful substitutions.
    """
    hits = 0
    names = list(network.node_names)
    for target in names:
        if not network.has_node(target):
            continue
        t_func = network.function(target)
        if t_func.num_cubes > _EXTRACT_CUBE_CAP:
            continue
        t_support = set(t_func.support_names())
        for divisor_name in names:
            if divisor_name == target or not network.has_node(divisor_name):
                continue
            d_func = network.function(divisor_name)
            if divisor_name in t_func.variables:
                continue
            if d_func.num_cubes < 2 and d_func.num_literals < 2:
                continue
            if not set(d_func.support_names()) <= t_support:
                continue
            if target in network.transitive_fanin(divisor_name):
                continue
            rewritten = divide_functions(t_func, d_func, divisor_name)
            if rewritten is None or divisor_name not in rewritten.variables:
                continue
            network.set_function(target, rewritten)
            t_func = rewritten
            t_support = set(t_func.support_names())
            hits += 1
    network.cleanup()
    return hits


# ----------------------------------------------------------------------
# Technology decomposition
# ----------------------------------------------------------------------


def decompose(
    network: BooleanNetwork,
    max_fanin: int = 0,
    inverter_gates: bool = False,
    style: str = "factored",
) -> None:
    """Decompose every node into AND/OR gates of bounded fanin.

    After this pass every internal node is a *simple gate*: a single cube
    (AND of literals) or a union of single-literal cubes (OR of literals).
    ``max_fanin`` of 0 means unbounded; otherwise gates are balanced into
    trees of at most ``max_fanin`` inputs.  This is the form one-to-one
    threshold mapping consumes.

    ``style`` selects the decomposition:

    * ``"factored"`` — build gates from the algebraic factored form (few
      gates, barely sensitive to the fanin bound);
    * ``"sop"`` — classic SIS-style AND-OR decomposition of each node's
      cover (one AND per cube, an OR of cubes), whose gate count depends
      strongly on ``max_fanin`` — this is the structure the paper's
      one-to-one mapping counts.

    With ``inverter_gates`` set, complemented literals become explicit
    shared inverter nodes — the classic simple-gate network model the paper
    uses (the inverter in its Fig. 2(a) counts as a gate); otherwise
    complement phases stay folded into the reading gate's cube.
    """
    if style not in ("factored", "sop"):
        raise NetworkError(f"unknown decomposition style {style!r}")
    if max_fanin != 0 and max_fanin < 2:
        # A bound of 1 (or below) never shrinks an operand list.
        raise NetworkError(
            f"max_fanin must be 0 (unbounded) or at least 2, not {max_fanin}"
        )
    inverters: dict[str, str] = {}
    inv = inverters if inverter_gates else None
    for node in list(network.node_names):
        func = network.function(node)
        if style == "sop":
            form: FactorForm = _sop_form(func.cover)
        else:
            form = factor(func.cover)
        replacement = _build_gate_tree(
            network, form, func.variables, max_fanin, inv
        )
        network.set_function(node, replacement)
    network.cleanup()


def _sop_form(cover: Cover) -> FactorForm:
    """Two-level AND-OR form of a cover (no factoring)."""
    if cover.is_zero():
        return FactorConst(False)
    cubes = []
    for cube in cover.scc().cubes:
        if cube.is_full():
            return FactorConst(True)
        literals: list[FactorForm] = [
            FactorLit(var, phase) for var, phase in cube.literals()
        ]
        cubes.append(
            literals[0] if len(literals) == 1 else FactorAnd(tuple(literals))
        )
    return cubes[0] if len(cubes) == 1 else FactorOr(tuple(cubes))


def _build_gate_tree(
    network: BooleanNetwork,
    form: FactorForm,
    names: tuple[str, ...],
    max_fanin: int,
    inverters: dict[str, str] | None = None,
) -> BooleanFunction:
    """Recursively materialize a factored form as simple-gate nodes.

    Returns the function the *parent* gate should use for this subtree: a
    literal reference (possibly complemented) or a fresh node's name.
    """
    if isinstance(form, FactorConst):
        return BooleanFunction.constant(form.value)
    if isinstance(form, FactorLit):
        signal = names[form.var]
        if inverters is not None and not form.phase:
            inv = inverters.get(signal)
            if inv is None:
                inv = network.fresh_name("inv")
                network.add_node(
                    inv,
                    BooleanFunction(Cover.literal(0, False, 1), (signal,)),
                )
                inverters[signal] = inv
            return BooleanFunction(Cover.literal(0, True, 1), (inv,))
        return BooleanFunction(
            Cover.literal(0, form.phase, 1), (signal,)
        )
    assert isinstance(form, (FactorAnd, FactorOr))
    is_and = isinstance(form, FactorAnd)
    operands: list[BooleanFunction] = []
    for child in form.children:
        child_func = _build_gate_tree(network, child, names, max_fanin, inverters)
        if isinstance(child, (FactorAnd, FactorOr)):
            child_name = network.fresh_name("g")
            network.add_node(child_name, child_func)
            child_func = BooleanFunction(
                Cover.literal(0, True, 1), (child_name,)
            )
        operands.append(child_func)
    return _combine_gate(network, operands, is_and, max_fanin)


def _combine_gate(
    network: BooleanNetwork,
    operands: list[BooleanFunction],
    is_and: bool,
    max_fanin: int,
) -> BooleanFunction:
    """AND/OR together single-literal operand functions, balancing fanin."""
    while max_fanin and len(operands) > max_fanin:
        grouped: list[BooleanFunction] = []
        for start in range(0, len(operands), max_fanin):
            chunk = operands[start : start + max_fanin]
            if len(chunk) == 1:
                grouped.append(chunk[0])
                continue
            gate_name = network.fresh_name("g")
            network.add_node(gate_name, _gate_function(chunk, is_and))
            grouped.append(
                BooleanFunction(Cover.literal(0, True, 1), (gate_name,))
            )
        operands = grouped
    return _gate_function(operands, is_and)


def _gate_function(operands: list[BooleanFunction], is_and: bool) -> BooleanFunction:
    """Build the SOP of an AND/OR of single-literal operand functions."""
    names: list[str] = []
    literals: list[tuple[int, bool]] = []
    for op in operands:
        ((var, phase),) = op.cover.cubes[0].literals()
        name = op.variables[var]
        if name not in names:
            names.append(name)
        literals.append((names.index(name), phase))
    nvars = len(names)
    if is_and:
        cube_lits: dict[int, bool] = {}
        for var, phase in literals:
            cube_lits[var] = phase
        cover = Cover((Cube.from_literals(cube_lits, nvars),), nvars)
    else:
        cubes = [Cube.from_literals({var: phase}, nvars) for var, phase in literals]
        cover = Cover(cubes, nvars).scc()
    return BooleanFunction(cover, names)


# ----------------------------------------------------------------------
# Full collapse
# ----------------------------------------------------------------------


def collapse_network(network: BooleanNetwork) -> BooleanNetwork:
    """Flatten to a two-level network: one node per PO over primary inputs.

    Exponential in general — intended for verification on small circuits.
    """
    flat = BooleanNetwork(network.name + "_flat")
    for pi in network.inputs:
        flat.add_input(pi)
    order = network.topological_order()
    expressed: dict[str, BooleanFunction] = {}
    for node in order:
        func = network.function(node)
        for fanin in func.variables:
            if fanin in expressed:
                func = func.substitute(fanin, expressed[fanin])
        expressed[node] = func
    for out in network.outputs:
        if network.is_input(out):
            flat.add_output(out)  # PO aliases the PI directly
        else:
            flat.add_node(out, expressed[out])
            flat.add_output(out)
    flat.cleanup()
    return flat
