"""Independent brute-force oracles the main implementations are checked against.

Everything here is deliberately slow, loop-based pure Python so it shares
no code path with the vectorized implementations under test.
"""
from __future__ import annotations

import math
import re
from html.parser import HTMLParser

from tabevade.errors import ExtractionError
from tabevade.models.tree import pair_costs, pick_features
from tabevade.webfeatures import (
    _POPUP_RE,
    _PROMPT_RE,
    _REDIRECT_RE,
    _SCHEME_RE,
    _SPECIAL_SYMBOLS,
    _VOWELS,
    SUSPICIOUS_TERMS,
    WEB_FEATURE_NAMES,
    WebFeatureVector,
    WebPage,
    _count_matches,
    _longest_token,
    _ratio,
    _url_parts,
)
from tabevade.pageparse import _parse_events


def gini(labels) -> float:
    if not labels:
        return 0.0
    p1 = sum(labels) / len(labels)
    return 1.0 - p1 * p1 - (1.0 - p1) ** 2


def entropy(labels) -> float:
    if not labels:
        return 0.0
    total = len(labels)
    out = 0.0
    for count in (sum(labels), total - sum(labels)):
        if count:
            p = count / total
            out -= p * math.log2(p)
    return out


def _thresholds(column) -> list[float]:
    vals = sorted(set(column))
    return [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]


def brute_force_gini_gain(column, labels) -> float:
    """Max Gini gain over every candidate midpoint threshold."""
    parent = gini(list(labels))
    best = 0.0
    n = len(labels)
    for t in _thresholds(column):
        left = [y for c, y in zip(column, labels) if c < t]
        right = [y for c, y in zip(column, labels) if c >= t]
        weighted = (len(left) * gini(left) + len(right) * gini(right)) / n
        best = max(best, parent - weighted)
    return best


def brute_force_info_gain(column, labels) -> float:
    parent = entropy(list(labels))
    best = 0.0
    n = len(labels)
    for t in _thresholds(column):
        left = [y for c, y in zip(column, labels) if c < t]
        right = [y for c, y in zip(column, labels) if c >= t]
        gain = parent - (len(left) * entropy(left) + len(right) * entropy(right)) / n
        best = max(best, gain)
    return best


def brute_force_info_gain_ratio(column, labels) -> float:
    """Ratio at the max-gain threshold (lowest threshold wins gain ties)."""
    parent = entropy(list(labels))
    n = len(labels)
    best_gain = -1.0
    best_split = None
    for t in _thresholds(column):
        left = [y for c, y in zip(column, labels) if c < t]
        right = [y for c, y in zip(column, labels) if c >= t]
        gain = parent - (len(left) * entropy(left) + len(right) * entropy(right)) / n
        if gain > best_gain + 1e-15:
            best_gain = gain
            best_split = (len(left), len(right))
    if best_split is None:
        return 0.0
    split_entropy = 0.0
    for size in best_split:
        if size:
            p = size / n
            split_entropy -= p * math.log2(p)
    if split_entropy <= 0.0:
        return 0.0
    return max(best_gain / split_entropy, 0.0)


def brute_force_auprc(scores, labels) -> float:
    """Exhaustive threshold enumeration with step integration."""
    points = []
    positives = sum(labels)
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        points.append((tp / positives, tp / (tp + fp)))
    area = 0.0
    prev_recall = 0.0
    for rec, prec in points:
        area += (rec - prev_recall) * prec
        prev_recall = rec
    return area


def confusion_recall(predictions, labels) -> float:
    tp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 1)
    fn = sum(1 for p, y in zip(predictions, labels) if p == 0 and y == 1)
    return tp / (tp + fn)


def walk_flat_tree(tree: dict, row, root: int = 0) -> float:
    """Leaf value one row reaches in a flat tree (lists as in ``to_dict``).

    One node at a time: go left when ``row[feature] < threshold``, else
    right, so ties and NaN go right; a leaf points left at itself.
    """
    node = root
    while tree["left"][node] != node:
        if row[tree["feature"][node]] < tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return tree["value"][node]


def split_costs(column, target, min_leaf: int, cost) -> list[tuple[float, float]]:
    """``(threshold, cost(left, right))`` at every midpoint leaving ``min_leaf`` rows per side."""
    out = []
    for t in _thresholds(column):
        left = [y for c, y in zip(column, target) if c < t]
        right = [y for c, y in zip(column, target) if c >= t]
        if len(left) >= min_leaf and len(right) >= min_leaf:
            out.append((t, cost(left, right)))
    return out


def weighted_gini(left, right) -> float:
    return (len(left) * gini(left) + len(right) * gini(right)) / (len(left) + len(right))


def squared_gain_cost(left, right) -> float:
    """Minus the children's squared sums over their sizes, -(L²/n_L + R²/n_R).

    Per node it is the children's summed squared deviations less a constant,
    the sum of squares of every target, so it ranks a node's splits the same.
    """
    return -(sum(left) ** 2 / len(left) + sum(right) ** 2 / len(right))


def perturb_reference(x, plan, selected) -> list[float]:
    """One raw sample perturbed one selected feature at a time.

    Each feature moves by (epsilon / n) * sum(scaled) in its direction,
    clamped to [0, 1] scaled, inverted, and rounded toward the original when
    discrete; a clamp landing on the original keeps the raw value, and a row
    without a positive budget is returned as is.  With one-hot consistency,
    every group holding a selected feature ends with exactly one hot member:
    the highest scaled value, the lowest index on ties.  Only the budget's
    sum goes through numpy, so that it adds in numpy's pairwise order.
    """
    import numpy as np

    mins = [float(v) for v in plan.scaler.mins]
    maxs = [float(v) for v in plan.scaler.maxs]

    def scale(values):
        return [0.0 if hi == lo else (v - lo) / (hi - lo) for v, lo, hi in zip(values, mins, maxs)]

    out = [float(v) for v in x]
    scaled = scale(out)
    delta = (plan.config.epsilon / plan.config.n) * float(np.sum(scaled))
    if delta <= 0.0:
        return out
    for i in selected:
        sign = int(plan.direction.signs[i])
        moved = min(max(scaled[i] + delta * sign, 0.0), 1.0)
        if moved == scaled[i]:
            continue
        raw = moved * (maxs[i] - mins[i]) + mins[i]
        if plan.schema.features[i].is_discrete:
            raw = float(math.floor(raw) if sign > 0 else math.ceil(raw))
        out[i] = raw
    if plan.config.onehot_consistency:
        scaled = scale(out)
        groups: dict = {}
        for i, spec in enumerate(plan.schema.features):
            if spec.kind == "onehot":
                groups.setdefault(spec.group, []).append(i)
        for members in groups.values():
            if not set(members) & set(selected):
                continue
            winner = max(members, key=lambda i: (scaled[i], -i))
            for i in members:
                out[i] = maxs[i] if i == winner else mins[i]
    return out


def node_split_reference(X, rows, y, features, min_leaf: int):
    """The Gini node search one feature at a time, as ``(cost, feature, threshold)`` or None.

    Each feature's rows are sorted stably by value.  Every boundary between
    two distinct values that leaves ``min_leaf`` rows per side is costed
    from running label sums taken in that order, with the same float
    operations as the vectorized search, so the two agree bit for bit; a
    feature keeps its first (lowest threshold) cheapest boundary.  In feature
    order a feature replaces the best only when cheaper by more than 1e-15.
    """
    import itertools

    n = len(rows)
    best = (math.inf, -1, 0.0)
    for j in features:
        ranked = sorted(rows, key=lambda r: X[r][j])  # stable: ties keep row order
        values = [X[r][j] for r in ranked]
        running = list(itertools.accumulate(y[r] for r in ranked))
        cheapest = (math.inf, 0.0)
        for p in range(n - 1):
            left_n = p + 1.0
            right_n = n - left_n
            if values[p] == values[p + 1] or left_n < min_leaf or right_n < min_leaf:
                continue
            lo = float(running[p])
            ro = running[-1] - lo
            a, b = lo / left_n, (left_n - lo) / left_n
            c, d = ro / right_n, (right_n - ro) / right_n
            cost = (left_n * (1.0 - (a * a + b * b)) + right_n * (1.0 - (c * c + d * d))) / n
            if cost < cheapest[0]:
                cheapest = (cost, _midpoint(values[p], values[p + 1]))
        if cheapest[0] < best[0] - 1e-15:
            best = (cheapest[0], j, cheapest[1])
    return best if best[1] >= 0 else None


def cheapest_splits(rows, sizes, ones, drawn, columns, min_leaf: int):
    """Each node's cheapest ``(cost, feature, threshold)`` over its drawn features, as three arrays.

    Not an oracle: the Gini grower's two steps, ``tree.pick_features`` over
    ``tree.pair_costs``, composed for the tests that check them
    against :func:`node_split_reference`.  A node without a valid split gets
    cost ``inf``, feature 0 and threshold 0.0.
    """
    return pick_features(*pair_costs(rows, sizes, ones, drawn, columns, min_leaf), drawn)


def _midpoint(low, high) -> float:
    mid = 0.5 * (low + high)
    return mid if mid > low else high  # the upper value when the midpoint rounds onto the lower


def mse_split_reference(X, rows, target, features, min_leaf: int):
    """The squared-error node search by brute force, as ``(cost, feature, threshold)`` or None.

    For each feature in order, every midpoint between two consecutive
    distinct values of the node's rows that leaves ``min_leaf`` rows per
    side is costed with :func:`squared_gain_cost`'s formula; a feature keeps
    its first (lowest threshold) cheapest midpoint, and a feature replaces
    the best only when cheaper by more than 1e-15.  The left sum adds each
    distinct value's targets (in the order of ``rows``) and then those sums
    in value order, and the right sum is the feature's total minus it: the
    float operations of the per-(node, value) kernel, so the two agree bit
    for bit even on targets that are not dyadic.
    """
    import itertools

    best = (math.inf, -1, 0.0)
    for j in features:
        values = sorted({X[r][j] for r in rows})
        running = list(itertools.accumulate(sum(target[r] for r in rows if X[r][j] == v) for v in values))
        cheapest = (math.inf, 0.0)
        for low, high, left_sum in zip(values, values[1:], running):
            threshold = _midpoint(low, high)
            n_left = float(sum(1 for r in rows if X[r][j] < threshold))
            n_right = len(rows) - n_left
            if n_left < max(min_leaf, 1) or n_right < max(min_leaf, 1):
                continue
            right_sum = running[-1] - left_sum
            cost = -(left_sum * left_sum / n_left + right_sum * right_sum / n_right)
            if cost < cheapest[0]:
                cheapest = (cost, threshold)
        if cheapest[0] < best[0] - 1e-15:
            best = (cheapest[0], j, cheapest[1])
    return best if best[1] >= 0 else None


def tree_node_rows(tree: dict, X, rows):
    """``(node, depth, rows)`` for every node of a flat tree (lists as in ``to_dict``), in preorder.

    A node's rows are those of its parent that go its way: left when
    ``row[feature] < threshold``.
    """
    out, pending = [], [(0, 0, list(rows))]
    while pending:
        node, depth, at = pending.pop()
        out.append((node, depth, at))
        if tree["left"][node] != node:
            f, cut = tree["feature"][node], tree["threshold"][node]
            pending.append((tree["right"][node], depth + 1, [r for r in at if not X[r][f] < cut]))
            pending.append((tree["left"][node], depth + 1, [r for r in at if X[r][f] < cut]))
    return out


def mlp_adam_reference(X, y, hidden: int, epochs: int, learning_rate: float, batch_size: int, rng):
    """``(w1, b1, w2, b2)`` of the MLP trained with one Adam update per parameter array.

    The per-array loop the flat-vector update replaced: the same draws, the
    same batches and the same elementwise operations in the same order, so
    the weights must agree bit for bit.
    """
    import numpy as np

    def sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    n, f = X.shape
    w1 = rng.normal(0.0, np.sqrt(2.0 / max(f, 1)), size=(f, hidden))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=hidden)
    params = [w1, np.zeros(hidden), w2, np.zeros(1)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            rows = order[start:start + batch_size]
            xb, yb = X[rows], y[rows]
            hidden_raw = xb @ params[0] + params[1]
            activated = np.maximum(hidden_raw, 0.0)
            p = sigmoid(activated @ params[2] + params[3][0])
            delta_out = (p - yb) / rows.size
            delta_hidden = np.outer(delta_out, params[2]) * (hidden_raw > 0.0)
            grads = [xb.T @ delta_hidden, delta_hidden.sum(axis=0), activated.T @ delta_out,
                     np.array([delta_out.sum()])]
            step += 1
            for k in range(4):
                m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
                v[k] = beta2 * v[k] + (1 - beta2) * grads[k] ** 2
                m_hat = m[k] / (1 - beta1**step)
                v_hat = v[k] / (1 - beta2**step)
                params[k] -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return params[0], params[1], params[2], float(params[3][0])


def logistic_descend_reference(X, y, epochs: int, l2: float, learning_rate: float):
    """Weights (C, k) and biases (C,) of the stacked logistic descent, every product a ``np.matmul``.

    The epoch loop before one-column stacks took a broadcast multiply:
    ``X @ w`` for every k, so the two must agree bit for bit.
    """
    import numpy as np

    C, n, k = X.shape
    Xt = X.transpose(0, 2, 1)
    Y = np.ascontiguousarray(np.broadcast_to(y[:, None], (C, n, 1)))
    w = np.zeros((C, k, 1))
    b = np.zeros((C, 1, 1))
    for _ in range(epochs):
        err = 0.5 * (1.0 + np.tanh(0.5 * (X @ w + b))) - Y
        w -= learning_rate * (Xt @ err / n + l2 * w)
        b -= learning_rate * (err.sum(axis=1, keepdims=True) / n)
    return w[:, :, 0], b[:, 0, 0]


def logistic_counted_descend_reference(X, y, counts, epochs: int, l2: float, learning_rate: float):
    """``logistic.descend(X, y, ..., counts=counts)``, one slice at a time.

    Row r of slice c stands for ``counts[c, r]`` training rows, ``y[c, r]``
    of them positive; each slice runs its own 2-D epoch loop.
    """
    import numpy as np

    C, m, k = X.shape
    weights, biases = np.zeros((C, k)), np.zeros(C)
    for c in range(C):
        Xc, yc, nc = X[c], y[c][:, None], counts[c][:, None]
        n = nc.sum()
        w = np.zeros((k, 1))
        b = np.zeros((1, 1))
        for _ in range(epochs):
            err = 0.5 * (1.0 + np.tanh(0.5 * (Xc @ w + b))) * nc - yc
            w -= learning_rate * (Xc.T @ err / n + l2 * w)
            b -= learning_rate * (err.sum(axis=0, keepdims=True) / n)
        weights[c], biases[c] = w[:, 0], b[0, 0]
    return weights, biases


def rfe_reference(Xs, y) -> list[tuple[list[int], dict, int]]:
    """Recursive elimination refitting a tree at every step, as ``(survivors, tree arrays, eliminated)`` per step.

    Each step fits ``DecisionTree(**tree.DEFAULTS)`` on ``Xs[:, survivors]``
    alone, so its tree numbers features by survivor position, and drops the
    survivor with the smallest importance, the highest index among equals.
    """
    from tabevade.models.tree import DEFAULTS, DecisionTree

    remaining = list(range(Xs.shape[1]))
    steps = []
    while len(remaining) > 1:
        model = DecisionTree(**DEFAULTS).fit(Xs[:, remaining], y)
        worst = max(range(len(remaining)), key=lambda k: (-model.importances[k], remaining[k]))
        steps.append((list(remaining), model.flat.to_dict(), remaining[worst]))
        remaining.pop(worst)
    return steps


def permutation_importance_reference(train, holdout, probe_model, repeats: int = 5, seed: int = 0):
    """Per-feature mean drop in holdout recall, each shuffle predicting every holdout positive.

    The body ``ranking.permutation_importance`` had before it predicted only
    the positives a shuffle moved.
    """
    import numpy as np

    from tabevade.errors import RankingError
    from tabevade.metrics import recall
    from tabevade.models import Model

    if not isinstance(probe_model, Model):
        raise RankingError("permutation importance needs a fitted probe model")
    if repeats < 1:
        raise RankingError("repeats must be positive")
    rng = np.random.default_rng(seed)
    pos = np.flatnonzero(holdout.y == 1)
    y_pos = holdout.y[pos]
    base = recall(probe_model, holdout.X[pos], y_pos)
    n = holdout.n_rows
    scores = np.zeros(holdout.n_features)
    for j in range(holdout.n_features):
        drops = 0.0
        for _ in range(repeats):
            perm = rng.permutation(n)
            shuffled = holdout.X[pos]
            shuffled[:, j] = holdout.X[perm[pos], j]
            drops += base - recall(probe_model, shuffled, y_pos)
        scores[j] = drops / repeats
    return scores


def ffs_rank_reference(train, seed: int = 0):
    """Greedy forward selection with every candidate fitted on all of its training rows.

    The body ``ranking.ffs_rank`` had before it fitted each candidate on its
    distinct rows: each step stacks its candidates, at most ``2 ** 14``
    (candidate, row, column) elements at a time, over the full scaled rows.
    """
    import numpy as np

    from tabevade.data import fit_scaler, split, transform
    from tabevade.models import logistic
    from tabevade.ranking import FeatureRanking

    n_features = train.n_features
    train, holdout = split(train, 0.75, seed)
    scaler = fit_scaler(train)
    XsT = np.ascontiguousarray(transform(train.X, scaler).T)
    HsT = np.ascontiguousarray(transform(holdout.X, scaler).T)
    y = train.y.astype(float)
    positive = holdout.y == 1
    positives = int(positive.sum())

    def holdout_recalls(cols):
        w, b = logistic.descend(XsT[cols].transpose(0, 2, 1), y, **logistic.DEFAULTS)
        scores = logistic.sigmoid((HsT[cols].transpose(0, 2, 1) @ w[:, :, None])[:, :, 0] + b[:, None])
        return ((scores >= 0.5) & positive).sum(axis=1) / positives

    selected = []
    current = 0.0
    last_eval = np.zeros(n_features)
    while len(selected) < n_features:
        candidates = [j for j in range(n_features) if j not in selected]
        cols = np.array([selected + [j] for j in candidates])
        step = max(1, (1 << 14) // (cols.shape[1] * XsT.shape[1]))
        for start in range(0, len(candidates), step):
            last_eval[candidates[start:start + step]] = holdout_recalls(cols[start:start + step])
        best_j = max(candidates, key=lambda j: last_eval[j])
        if last_eval[best_j] - current <= 0.0:
            break
        selected.append(best_j)
        current = last_eval[best_j]
    rest = [j for j in range(n_features) if j not in selected]
    rest.sort(key=lambda j: (-last_eval[j], j))
    order = selected + rest
    scores = [0.0] * n_features
    for position, j in enumerate(order):
        scores[j] = float(n_features - position)
    return FeatureRanking(order=tuple(order), scores=tuple(scores), method="ffs")


def forest_node_draws(trees, X, y, rng, k: int, bootstrap: bool, max_depth: int, min_leaf: int):
    """``(tree, node, rows, features)`` for every node of a fitted forest, rebuilt from its streams.

    ``trees`` are the forest's trees as ``to_dict`` lists and ``rng`` a
    generator in the state the forest's fit got it.  The draws follow the
    documented derivation: one ``SeedSequence`` seeded from
    ``rng.integers(2**63)`` spawns a generator per tree, which draws the
    bootstrap sample and then, level by level, one uniform key per
    (searched node, feature), nodes in level order.  ``rows`` are the node's
    bootstrap samples (duplicates included), routed down the stored tree by
    ``X[row][feature] < threshold``.  ``features`` are the k lowest-keyed
    features in ascending order, or None for a node that is not searched:
    one at ``max_depth``, with fewer than ``2 * min_leaf`` samples or pure.
    """
    import numpy as np

    n, d = len(X), len(X[0])
    seeds = np.random.SeedSequence(int(rng.integers(2**63))).spawn(len(trees))
    out = []
    for t, (tree, seed) in enumerate(zip(trees, seeds)):
        stream = np.random.default_rng(seed)
        sample = stream.integers(0, n, size=n).tolist() if bootstrap else list(range(n))
        level, depth = [(0, sample)], 0
        while level:
            searched = [depth < max_depth and len(rows) >= 2 * min_leaf and 0 < sum(y[r] for r in rows) < len(rows)
                        for _, rows in level]
            keys = iter(stream.random((sum(searched), d)).tolist())
            children = []
            for (node, rows), is_searched in zip(level, searched):
                features = None
                if is_searched:
                    row = next(keys)
                    features = sorted(sorted(range(d), key=lambda j: (row[j], j))[:k])
                out.append((t, node, rows, features))
                if tree["left"][node] != node:
                    f, cut = tree["feature"][node], tree["threshold"][node]
                    children.append((tree["left"][node], [r for r in rows if X[r][f] < cut]))
                    children.append((tree["right"][node], [r for r in rows if not X[r][f] < cut]))
            level, depth = children, depth + 1
    return out


# ---------------------------------------------------------------------------
# page features: the multi-pass extractor that the one-pass count replaced,
# fed only by the stdlib HTMLParser (_Collector).  The URL helpers are shared
# with webfeatures because the URL rules did not change.

def extract_features_reference(page: WebPage) -> WebFeatureVector:
    """The multi-pass extractor over the stdlib parser's events, one generator per rule."""
    import numpy as np

    url = page.url
    events = _parse_events(page.html)
    parts, hostname = _url_parts(url)
    labels = hostname.split(".") if hostname else []
    subdomain = ".".join(labels[:-2]) if len(labels) > 2 else ""
    domain = ".".join(labels[-2:]) if len(labels) >= 2 else hostname
    free_url = url.split("://", 1)[1] if "://" in url else url
    letters = sum(c.isalpha() for c in url)
    digits = sum(c.isdigit() for c in url)
    vowels = sum(c in _VOWELS for c in url)
    consonants = letters - vowels
    host_letters = sum(c.isalpha() for c in hostname)
    host_digits = sum(c.isdigit() for c in hostname)
    script_text = "".join(events.script_text)
    html_lower = page.html.lower()

    tags = [tag for tag, _, _ in events.elements]
    attrs_list = [attrs for _, attrs, _ in events.elements]

    def count_tag(name: str) -> int:
        return sum(1 for t in tags if t == name)

    def form_actions() -> list[str | None]:
        return [a.get("action") for t, a in zip(tags, attrs_list) if t == "form"]

    forms = form_actions()

    def action_is_abnormal(action: str | None) -> bool:
        return action is None or action.strip().lower() in ("", "#", "about:blank")

    def action_is_insecure(action: str | None) -> bool:
        return action is not None and action.strip().lower().startswith("http://")

    def action_is_relative(action: str | None) -> bool:
        if action_is_abnormal(action):
            return False
        return not _SCHEME_RE.match(action.strip())

    def action_is_safe(action: str | None) -> bool:
        return not action_is_abnormal(action) and not action_is_insecure(action)

    meta_refresh = sum(
        1
        for t, a in zip(tags, attrs_list)
        if t == "meta" and a.get("http-equiv", "").strip().lower() == "refresh"
    )

    values = {
        "href": sum(1 for a in attrs_list if "href" in a),
        "javascript": count_tag("script"),
        "text_in_body": len("".join(events.body_text).split()),
        "no_www": url.count("www"),
        "images": count_tag("img"),
        "meta": count_tag("meta"),
        "no_digits": digits,
        "subdomain_len": len(subdomain),
        "alph_digit_ratio": _ratio(letters, digits),
        "url_len": len(url),
        "len_freeurl": len(free_url),
        "no_dir": parts.path.count("/"),
        "no_alphanumeric": letters + digits,
        "hyphens_in_path": parts.path.count("-"),
        "longest_token": _longest_token(url),
        "suspicious_words": sum(html_lower.count(term) for term in SUSPICIOUS_TERMS),
        "len_fqdn": len(free_url.replace("/", "")),
        "protocol": 1 if url.lower().startswith("https") else 0,
        "passwdfield": sum(
            1 for t, a in zip(tags, attrs_list) if t == "input" and a.get("type", "").lower() == "password"
        ),
        "no_vowels": vowels,
        "no_alpha": letters,
        "no_constants": consonants,
        "no_dots": url.count("."),
        "host_dig_let_ratio": _ratio(host_digits, host_letters),
        "iframes": count_tag("iframe"),
        "forms": len(forms),
        "length_of_domains": len(domain),
        "dots_freeurl": hostname.count("."),
        "relativeforms": sum(1 for a in forms if action_is_relative(a)),
        "vowel_constant_ratio": _ratio(vowels, consonants),
        "hidden_text": sum(
            1
            for t, a in zip(tags, attrs_list)
            if "hidden" in a or (t == "input" and a.get("type", "").lower() == "hidden")
        ),
        "longest_token_hostname": _longest_token(hostname),
        "dig_in_hostname": host_digits,
        "no_dash": url.count("-"),
        "redirects": _count_matches(_REDIRECT_RE, script_text) + meta_refresh,
        "url_of_anchor": count_tag("a"),
        "submit_to_mail": sum(
            1 for a in attrs_list if a.get("href", "").strip().lower().startswith("mailto:")
        ),
        "rightclick_disabled": sum(1 for a in attrs_list if "oncontextmenu" in a),
        "no_special_sym": sum(1 for c in url if c in _SPECIAL_SYMBOLS),
        "title": 1 if count_tag("title") else 0,
        "no_percent": url.count("%"),
        "no_eq": url.count("="),
        "no_ques": url.count("?"),
        "popup": _count_matches(_POPUP_RE, script_text),
        "insecureforms": sum(1 for a in forms if action_is_insecure(a)),
        "no_http": url.count("http"),
        "abnormalforms": sum(1 for a in forms if action_is_abnormal(a)),
        "onmouseover": 1 if any("onmouseover" in a for a in attrs_list) else 0,
        "no_at": url.count("@"),
        "userprompt": _count_matches(_PROMPT_RE, script_text),
        "no_dollar": url.count("$"),
        "SFH": sum(1 for a in forms if action_is_safe(a)),
    }
    return WebFeatureVector(values=np.array([values[name] for name in WEB_FEATURE_NAMES], dtype=float))



# ---------------------------------------------------------------------------
# invisibility: an element is hidden from view by the hidden attribute, as an
# <input type="hidden">, or by a CSS display/visibility declaration

def _style_declares_hidden(attrs: dict[str, str]) -> bool:
    style = attrs.get("style", "").replace(" ", "").lower()
    return "display:none" in style or "visibility:hidden" in style


def is_display_suppressed(attrs: dict[str, str]) -> bool:
    return "hidden" in attrs or attrs.get("type", "").lower() == "hidden" or _style_declares_hidden(attrs)


# ---------------------------------------------------------------------------
# splice points: the separate feed-only parse that inject ran before the
# offsets moved into the page's one parse

class _EndTagScanner(HTMLParser):
    """Offsets of a page's real </head>, </body> and </html> end tags, and
    of the unfinished markup (an unclosed comment, tag or raw-text element)
    that the parser holds back at the page's end."""

    def __init__(self, html: str) -> None:
        super().__init__(convert_charrefs=True)
        self._line_starts = [0] + [m.end() for m in re.finditer("\n", html)]
        self.ends: dict[str, int] = {}  # tag -> offset of its last real end tag
        self._last_start_tag = 0
        try:
            self.feed(html)  # no close(): what the parser holds back stays unfinished
        except Exception as exc:  # as in extraction: the stdlib parser is lenient, anything else is fatal
            raise ExtractionError(f"cannot parse page: {exc}") from exc
        self.unfinished = self._last_start_tag if self.cdata_elem else len(html) - len(self.rawdata)

    def _offset(self) -> int:
        line, column = self.getpos()
        return self._line_starts[line - 1] + column

    def handle_starttag(self, tag, attrs):
        self._last_start_tag = self._offset()

    def handle_startendtag(self, tag, attrs):  # <body/> opens nothing and closes nothing
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag.lower() in ("head", "body", "html"):
            self.ends[tag.lower()] = self._offset()


def splice_points_reference(html: str) -> tuple[int | None, int]:
    """(head_end, body_end) as a separate feed-only parse of the page finds them."""
    scanner = _EndTagScanner(html)
    return scanner.ends.get("head"), scanner.ends.get("body", scanner.ends.get("html", scanner.unfinished))


def grid_reference(train, test, spec, seed):
    """The grid's records with every cell perturbed and predicted on its own.

    Models and rankings are fitted once, as the grid fits them; each cell
    then builds its own plan, perturbs the test positives and predicts
    them, with nothing shared between cells.  Records come in cell order.
    """
    from tabevade.attack import AttackConfig, AttackPlan, compute_direction, perturb_batch
    from tabevade.data import fit_scaler
    from tabevade.evaluation import GridRecord
    from tabevade.metrics import recall, success_rate
    from tabevade.models import fit, predict
    from tabevade.ranking import rank_features

    rankings = {method: rank_features(train, method, seed=seed) for method in spec.methods}
    positives = test.take(test.rows_of_class(1))
    records = []
    for kind in spec.model_kinds:
        model = fit(kind, train, seed=seed)
        baseline = recall(model, test.X, test.y)
        for method in spec.methods:
            for n in spec.n_values:
                for epsilon in spec.epsilon_values:
                    config = AttackConfig(n=n, epsilon=epsilon, method=method)
                    plan = AttackPlan(train.schema, rankings[method], compute_direction(train), config,
                                      fit_scaler(train))
                    preds = predict(model, perturb_batch(positives, plan))
                    attack = float(preds.mean()) if preds.size else 0.0
                    records.append(GridRecord(kind, method, n, epsilon, baseline, attack,
                                              success_rate(baseline, attack)))
    return tuple(records)


def _parse_numeric_reference(cell: str, spec, row: int) -> float:
    from tabevade.errors import ParseError

    text = cell.strip()
    if not text:
        raise ParseError(f"row {row}: missing value in column {spec.name!r}")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: non-numeric value {cell!r} in column {spec.name!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: non-finite value {cell!r} in column {spec.name!r}")
    if spec.is_discrete and value != math.floor(value):
        raise ParseError(f"row {row}: non-integer value {cell!r} in discrete column {spec.name!r}")
    if spec.kind == "onehot" and value not in (0.0, 1.0):
        raise ParseError(f"row {row}: one-hot column {spec.name!r} holds {cell!r}, expected 0 or 1")
    return value


def load_dataset_reference(source, schema):
    """``load_dataset`` on a text stream, one row and one cell at a time.

    Each row's width is checked, then its label, then its cells in schema
    order, each through ``float`` on its own; the first failure raises.
    """
    import csv

    import numpy as np

    from tabevade.data import Dataset, FeatureSchema, FeatureSpec
    from tabevade.errors import ParseError, SchemaError

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("CSV has no header row") from None
    header = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for idx, name in enumerate(header):
        positions.setdefault(name, idx)

    missing = [n for n in (*schema.names, schema.target_column) if n not in positions]
    if missing:
        raise SchemaError(f"CSV header lacks columns: {missing}")

    label_pos = positions[schema.target_column]
    columns: list[list] = [[] for _ in schema.features]
    labels: list[int] = []
    for row_idx, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue  # blank line
        if len(row) != len(header):
            raise ParseError(f"row {row_idx}: expected {len(header)} cells, got {len(row)}")
        label_cell = row[label_pos].strip()
        if label_cell == schema.positive_class_label:
            labels.append(1)
        elif label_cell == schema.negative_class_label:
            labels.append(0)
        else:
            raise ParseError(f"row {row_idx}: unknown label {label_cell!r}")
        for j, spec in enumerate(schema.features):
            cell = row[positions[spec.name]]
            if spec.kind == "categorical":
                text = cell.strip()
                if not text:
                    raise ParseError(f"row {row_idx}: missing value in column {spec.name!r}")
                columns[j].append(text)
            else:
                columns[j].append(_parse_numeric_reference(cell, spec, row_idx))

    expanded_specs = []
    expanded_cols = []
    n = len(labels)
    for j, spec in enumerate(schema.features):
        if spec.kind != "categorical":
            expanded_specs.append(spec)
            expanded_cols.append(np.asarray(columns[j], dtype=float))
            continue
        values = sorted(set(columns[j]))
        if len(values) < 2:
            raise SchemaError(
                f"categorical column {spec.name!r} has {len(values)} distinct value(s); "
                "one-hot groups need at least 2"
            )
        for value in values:
            expanded_specs.append(FeatureSpec(name=f"{spec.name}={value}", kind="onehot", group=spec.name,
                                              mutable=spec.mutable, addable=spec.addable))
            expanded_cols.append(np.asarray([float(v == value) for v in columns[j]]))

    X = np.column_stack(expanded_cols) if expanded_cols else np.zeros((n, 0))
    out_schema = FeatureSchema(features=tuple(expanded_specs), target_column=schema.target_column,
                               positive_class_label=schema.positive_class_label,
                               negative_class_label=schema.negative_class_label)
    return Dataset(X=X, y=np.asarray(labels, dtype=int), schema=out_schema)
