"""Reference versions of the numeric kernels and of fold dealing.

The ``_loops`` functions run every sum element by element in a fixed order,
so they are slow but easy to check by eye. ``test_kernels.py`` holds the
vectorized kernels to them: exactly for neighbour search and interpolation,
within stated tolerances for the logistic-regression arithmetic, whose
summation order differs.

``sq_distances_rows`` is the diff form of the squared distances, one row
at a time; ``kernels.sq_distances`` must equal it bit for bit, through its
Gram product on integer rows as through its own row loop.

``fold_assignment_loops`` deals shuffled documents to folds one at a time,
positives first, as ``eval.make_folds`` does in one vectorized step.

``normalize_loops`` searches every rule at every step, and
``tokenize_loops`` lowercases token by token. ``corpus.normalize``
keeps each rule's next match and searches a rule again only when a
replacement passes that match, and ``corpus.tokenize``
maps ASCII text between placeholders through one translate table;
``test_corpus.py`` requires equal output. ``build_documents_loops`` joins
an author's posts normalized one by one by the loop and tokenizes the
result by the loop; ``corpus.build_documents`` may normalize the joined
posts as one text and tokenize ASCII text between replacements directly,
and must give the same tokens.

``bow_loops`` counts tokens with a ``Counter`` for the vocabulary and
maps each document's tokens through the vocabulary's index one by one;
``features.realize_features`` takes both from one pass of token ids.

``embedding_average_loops`` adds each stored vector of a document's
tokens to a list of float sums, one component at a time, and divides by
the number of tokens found; ``features.embedding_matrix`` adds whole
vectors into each row and must give the same floats.

``score_inventory_loops`` adds each reverse-corrected item to a float sum
and divides by the item count; ``inventory.score_inventories`` takes the
sums from one integer product and must give the same floats.

``logreg_newton_numpy`` is Newton's method on one cell with exact dense
steps, over the cell's materialized rows (SMOTE rows included). The tests
hold every cell of the many-cell truncated-Newton fit to it, within the
bound that both fits' final gradients give (``assert_near_newton_oracle``).

``train_materialized`` is the training path that every model left for one
plan-and-fit path (``resample.plan_cell`` and ``models.fit_cells``):
SMOTE's rows built by ``resample.smote``, which interpolates the same
planned cell's triples, then one trainer per model kind on those rows.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

from facetrec import kernels
from facetrec.models import lr_model, nb_models, train_majority
from facetrec.resample import smote


def logreg_loss_grad_loops(X, y, w, b, l2):
    n, d = X.shape
    loss = 0.0
    gw = np.zeros(d)
    gb = 0.0
    for i in range(n):
        z = b
        for j in range(d):
            z += X[i, j] * w[j]
        a = abs(z)
        e = math.exp(-a)
        loss += max(z, 0.0) + math.log1p(e) - y[i] * z
        if z >= 0.0:
            p = 1.0 / (1.0 + e)
        else:
            p = e / (1.0 + e)
        r = p - y[i]
        gb += r
        for j in range(d):
            gw[j] += r * X[i, j]
    loss /= n
    gb /= n
    ww = 0.0
    for j in range(d):
        gw[j] = gw[j] / n + l2 * w[j]
        ww += w[j] * w[j]
    loss += 0.5 * l2 * ww
    return loss, gw, gb


def logreg_loss_grad_numpy(X, y, w, b, l2):
    n = X.shape[0]
    z = X @ w + b
    e = np.exp(-np.abs(z))
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(e) - y * z))
    loss += 0.5 * l2 * float(w @ w)
    p = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    r = (p - y) / n
    gw = X.T @ r + l2 * w
    gb = float(r.sum())
    return loss, gw, gb


def logreg_newton_numpy(X, y, l2, max_iter, tol):
    """Returns (w, b, losses, converged, diverged) as kernels.logreg_descent
    does: Newton's method on one cell's dense rows from zero init, each step
    an exact np.linalg.solve of the (d + 1)-square Hessian over (w, b), then
    halved until the Armijo condition holds (c = 1e-4, at most 30 halvings).
    Stops by the rules of kernels.logreg_descent_cells."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    reg = np.diag(np.r_[np.full(d, l2), 0.0])
    theta = np.zeros(d + 1)

    def at(theta):
        loss, gw, gb = logreg_loss_grad_numpy(X, y, theta[:d], theta[d], l2)
        return loss, np.r_[gw, gb]

    loss, g = at(theta)
    losses = [loss]
    for it in range(max_iter + 1):
        if not math.isfinite(loss):
            return theta[:d], theta[d], np.array(losses), False, True
        if np.max(np.abs(g)) < tol:
            return theta[:d], theta[d], np.array(losses), True, False
        if it == max_iter:
            break
        z = A @ theta
        e = np.exp(-np.abs(z))
        H = A.T @ (A * (e / (1.0 + e) ** 2 / n)[:, None]) + reg
        step = np.linalg.solve(H, -g) if np.isfinite(H).all() else np.full(d + 1, np.nan)
        if not np.isfinite(step).all():  # taken whole: the loss turns non-finite
            theta = theta + step
            loss, g = at(theta)
            losses.append(loss)
            continue
        t = 1.0
        for _ in range(31):
            trial_loss, trial_g = at(theta + t * step)
            if trial_loss <= loss + 1e-4 * t * float(g @ step):
                break
            t *= 0.5
        else:
            break  # no step passes: the cell stops where it is
        theta, loss, g = theta + t * step, trial_loss, trial_g
        losses.append(loss)
    return theta[:d], theta[d], np.array(losses), False, False


def assert_near_newton_oracle(X, y, l2, w, b, losses, oracle):
    """Hold a fit (w, b, losses) of (X, y) to ``oracle``, the result of
    logreg_newton_numpy on the same rows.

    The two fits take different paths, so they agree only as far as their
    final gradients g and g_o let them. Where the objective is mu-strongly
    convex between the two, (g - g_o) . (theta - theta_o) >= mu
    |theta - theta_o|^2, so |theta - theta_o| <= (|g| + |g_o|) / mu, and
    each final loss is within |g|^2 / (2 mu) of the minimum. mu is half the
    Hessian's smallest eigenvalue at the oracle's fit: the factor 2 covers
    the Hessian's change over the short segment between them.
    """
    w_o, b_o, losses_o = oracle[:3]
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    assert abs(losses[0] - losses_o[0]) <= 1e-12 * losses_o[0]
    _, gw, gb = logreg_loss_grad_numpy(X, y, w, b, l2)
    _, gw_o, gb_o = logreg_loss_grad_numpy(X, y, w_o, b_o, l2)
    A = np.hstack([X, np.ones((len(X), 1))])
    e = np.exp(-np.abs(A @ np.r_[w_o, b_o]))
    H = A.T @ (A * (e / (1.0 + e) ** 2 / len(X))[:, None]) + np.diag(np.r_[np.full(X.shape[1], l2), 0.0])
    mu = 0.5 * np.linalg.eigvalsh(H)[0]
    g, g_o = np.linalg.norm(np.r_[gw, gb]), np.linalg.norm(np.r_[gw_o, gb_o])
    assert np.linalg.norm(np.r_[w - w_o, b - b_o]) <= (g + g_o) / mu
    assert abs(losses[-1] - losses_o[-1]) <= (g * g + g_o * g_o) / (2 * mu) + 1e-15


def train_materialized(spec, X, y, resample_cfg=None):
    """(model, X_aug, y_aug): a ``spec`` model trained on (X, y) with
    SMOTE's rows materialized by ``resample.smote`` when ``resample_cfg``
    is given. Majority reads the labels, naive Bayes the per-class sums of
    the rows (``X[y == c].sum(axis=0)``), and logistic regression runs
    ``kernels.logreg_descent`` on the rows."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    if resample_cfg is not None:
        X, y = smote(X, y, resample_cfg)
    if spec.kind == "majority":
        model = train_majority(y, X.shape[1])
    elif spec.kind == "naive_bayes":
        sums, counts = np.stack([X[y == c].sum(axis=0) for c in (0, 1)]), np.bincount(y, minlength=2)
        model = nb_models(sums[None], counts[None], spec.alpha)[0]
    else:
        model = lr_model(spec.lr, *kernels.logreg_descent(X, y, spec.lr.l2, spec.lr.max_epochs, spec.lr.tol))
    return model, X, y


def sq_distances_rows(M):
    return np.array([((M - m) ** 2).sum(axis=1) for m in M]).reshape(len(M), len(M))


def minority_knn_loops(M, k):
    n, d = M.shape
    k_eff = min(k, n - 1)
    out = np.empty((n, k_eff), dtype=np.int64)
    d2 = np.empty(n)
    for i in range(n):
        for j in range(n):
            s = 0.0
            for c in range(d):
                t = M[j, c] - M[i, c]
                s += t * t
            d2[j] = s
        d2[i] = np.inf
        order = np.argsort(d2, kind="mergesort")
        for m in range(k_eff):
            out[i, m] = order[m]
    return out


def interpolate_rows_loops(M, seed_pos, nbr_pos, gammas):
    m = seed_pos.shape[0]
    d = M.shape[1]
    out = np.empty((m, d))
    for i in range(m):
        s = seed_pos[i]
        nb = nbr_pos[i]
        g = gammas[i]
        for c in range(d):
            sv = M[s, c]
            out[i, c] = sv + g * (M[nb, c] - sv)
    return out


def fold_assignment_loops(y, perm, n_folds):
    fold = np.empty(len(y), dtype=np.int64)
    counter = 0
    for cls in (1, 0):
        for idx in perm:
            if y[idx] == cls:
                fold[idx] = counter % n_folds
                counter += 1
    return fold


def normalize_loops(text, table):
    if not table.rules or not text:
        return text
    parts = []
    pos = 0
    n = len(text)
    while pos < n:
        best = None
        best_rule = None
        for ridx, rule in enumerate(table.rules):
            m = rule.regex.search(text, pos)
            if m is None:
                continue
            cand = (m.start(), -(m.end() - m.start()), ridx)
            if best is None or cand < best:
                best = cand
                best_rule = (m.start(), m.end(), rule.token)
        if best_rule is None:
            parts.append(text[pos:])
            break
        start, end, token = best_rule
        parts.append(text[pos:start])
        parts.append(token)
        pos = end
    return "".join(parts)


_TOKEN_RE = re.compile(r"\$[A-Z][A-Z0-9_]*\$|\w+", re.UNICODE)


def tokenize_loops(text):
    out = []
    for tok in _TOKEN_RE.findall(text):
        out.append(tok if tok.startswith("$") else tok.lower())
    return out


def build_documents_loops(records, table):
    docs = []
    for rec in records:
        tokens = tokenize_loops(" ".join(normalize_loops(post, table) for post in rec.posts))
        if tokens:
            docs.append((rec.author_id, tuple(tokens)))
    return docs


def score_inventory_loops(items, key):
    """(domain means, facet means) as dicts, in the key's and FACET_NAMES' order."""
    from facetrec.inventory import FACET_NAMES

    def mean_of(entry):
        total = 0.0
        for idx, rev in entry:
            v = items[idx]
            total += (key.scale_min + key.scale_max - v) if rev else v
        return total / len(entry)

    return (
        {dom: mean_of(entry) for dom, entry in key.domains.items()},
        {fac: mean_of(key.facets[fac]) for fac in FACET_NAMES},
    )


def embedding_average_loops(tokens, store):
    total = [0.0] * store.dim
    hits = 0
    for tok in tokens:
        if tok in store.vectors:
            hits += 1
            for j, v in enumerate(store.vectors[tok].tolist()):
                total[j] += v
    return [t / hits for t in total] if hits else total


def bow_loops(token_seqs, vocab_size, binary=False):
    """(vocabulary entries, rows as lists of floats)."""
    counts = Counter()
    for tokens in token_seqs:
        counts.update(tokens)
    entries = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:vocab_size]
    index = {token: j for j, (token, _) in enumerate(entries)}
    rows = []
    for tokens in token_seqs:
        row = [0.0] * len(entries)
        for token in tokens:
            if token in index:
                row[index[token]] = 1.0 if binary else row[index[token]] + 1.0
        rows.append(row)
    return tuple(entries), rows
