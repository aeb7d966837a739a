"""Seeded request streams for the serving workloads, and their answer checks.

Every request is a ``(endpoint, body)`` pair generated from the run's
seed alone; the service sees nothing but these requests.  Each stream
is indexed, so a response can be keyed by the index of the request
that produced it (the cross-run digest in ``run.py`` relies on that).

- ``solve-distinct``: every ``/solve`` text has its own wording, so its
  number-slotted prompt is new and the completion memo never hits.
  Even indices are short problems (~20 generated tokens on the micro
  model), odd indices full problems (~48).
- ``front-mix``: a few hot ``/solve`` structures whose numbers vary
  (slotting maps each to one prompt, so after warm-up every one is a
  memo hit), interleaved with ``/ground``, ``/extract``, ``/convert``,
  ``/compare`` and ``/dimension``.
"""

from __future__ import annotations

import itertools
import math
import random

SUBJECTS = ["商店", "果园", "书店", "农场", "工厂", "学校", "车站", "仓库",
            "食堂", "花店", "渔村", "矿场"]
THINGS = ["橙子", "苹果", "书", "箱子", "螺丝", "椅子", "包裹", "砖块",
          "鸡蛋", "玫瑰", "鱼", "矿石"]
VERBS = ["卖出了", "运走了", "用掉了", "借出了", "送出了", "搬走了"]
MODIFIERS = ["", "红色的", "新的", "大的", "小的", "旧的", "白色的", "圆的"]
PLACES = ["", "东边的", "西边的", "南边的", "北边的", "城里的"]

#: Units whose factor to the target is exact in the KB, so /convert and
#: /compare answers can be checked against arithmetic done here.
CONVERSIONS = [
    ("km", "m", 1000.0), ("kg", "g", 1000.0), ("h", "s", 3600.0),
    ("min", "s", 60.0), ("cm", "mm", 10.0), ("m", "cm", 100.0),
    ("g", "kg", 0.001), ("s", "ms", 1000.0),
]
#: (unit, SI factor) groups that /compare ranks within one dimension.
COMPARABLE = [
    [("km", 1000.0), ("m", 1.0), ("cm", 0.01), ("mm", 0.001)],
    [("kg", 1.0), ("g", 0.001)],
    [("h", 3600.0), ("min", 60.0), ("s", 1.0)],
]
#: /dimension requests and the dimension vector each must produce.
DIMENSIONS = [
    ({"mention": "km/h"}, "A0E0L1I0M0H0T-1D0"),
    ({"mention": "kg"}, "A0E0L0I0M1H0T0D0"),
    ({"mention": "m/s"}, "A0E0L1I0M0H0T-1D0"),
    ({"mentions": ["kg", "m", "s"], "ops": ["*", "/"]},
     "A0E0L1I0M1H0T-1D0"),
    ({"mentions": ["m", "s", "s"], "ops": ["/", "/"]},
     "A0E0L1I0M0H0T-2D0"),
    ({"mentions": ["km", "h"], "ops": ["/"]}, "A0E0L1I0M0H0T-1D0"),
]
#: English sentences for /ground and /extract: (template, units in order).
GROUND_TEMPLATES = [
    ("The truck carried {} kg of apples over {} km in {} h.",
     ["kg", "km", "h"]),
    ("A runner covered {} m in {} s.", ["m", "s"]),
    ("The tank holds {} kg of water and weighs {} g empty.", ["kg", "g"]),
    ("The cable is {} cm long and {} mm thick.", ["cm", "mm"]),
]

HOT_STRUCTURES = 6
FRONT_CYCLE = ("solve", "ground", "extract", "convert", "compare",
               "dimension")


class WrongAnswer(AssertionError):
    """A response that does not match what its request must produce."""


def _short_text(subject: str, modifier: str, thing: str, n: int) -> str:
    return f"{subject}有 {n} 个{modifier}{thing}"


def _full_text(subject: str, modifier: str, thing: str, verb: str,
               a: int, b: int, c: int) -> str:
    return (f"{subject}有 {a} 个{modifier}{thing}，{verb} {b} 个，"
            f"又进货 {c} 个，现在有几个{thing}？")


def solve_distinct(seed: int, count: int) -> list[tuple[str, dict]]:
    """``count`` /solve requests, no two sharing a slotted prompt.

    Short and full problems alternate.  Wordings are drawn without
    replacement from the place x subject x modifier x thing (x verb)
    product, so prompts stay distinct for up to 6912 short ones.
    """
    rng = random.Random(seed)
    subjects = [place + subject for place in PLACES for subject in SUBJECTS]
    shorts = list(itertools.product(subjects, MODIFIERS, THINGS))
    fulls = list(itertools.product(subjects, MODIFIERS, THINGS, VERBS))
    rng.shuffle(shorts)
    rng.shuffle(fulls)
    if count > 2 * len(shorts):
        raise ValueError(f"solve-distinct supports at most "
                         f"{2 * len(shorts)} requests per run")
    requests = []
    for index in range(count):
        if index % 2 == 0:
            text = _short_text(*shorts[index // 2], rng.randint(2, 999))
        else:
            text = _full_text(*fulls[index // 2], rng.randint(20, 999),
                              rng.randint(2, 19), rng.randint(1, 9))
        requests.append(("/solve", {"text": text}))
    return requests


def hot_solve(rng: random.Random, structure: int) -> tuple[str, dict]:
    """One hot-structure /solve request: fixed wording, fresh numbers."""
    t = structure % HOT_STRUCTURES
    text = _full_text(SUBJECTS[t], "", THINGS[t], VERBS[t],
                      rng.randint(20, 999), rng.randint(2, 19),
                      rng.randint(1, 9))
    return "/solve", {"text": text}


def front_request(rng: random.Random, kind: str,
                  index: int) -> tuple[str, dict]:
    """One front-mix request of ``kind`` (an entry of FRONT_CYCLE)."""
    if kind == "solve":
        return hot_solve(rng, index)
    if kind in ("ground", "extract"):
        template, units = GROUND_TEMPLATES[rng.randrange(
            len(GROUND_TEMPLATES))]
        values = [rng.randint(2, 9999) for _ in units]
        return f"/{kind}", {"text": template.format(*values)}
    if kind == "convert":
        source, target, _ = CONVERSIONS[rng.randrange(len(CONVERSIONS))]
        return "/convert", {"value": rng.randint(1, 99999) / 8,
                            "source": source, "target": target}
    if kind == "compare":
        group = COMPARABLE[rng.randrange(len(COMPARABLE))]
        picks = [group[rng.randrange(len(group))] for _ in range(3)]
        return "/compare", {"quantities": [
            {"value": rng.randint(1, 9999), "unit": unit}
            for unit, _ in picks]}
    body, _ = DIMENSIONS[rng.randrange(len(DIMENSIONS))]
    return "/dimension", dict(body)


def front_warmup() -> list[tuple[str, dict]]:
    """The untimed pass that decodes each hot structure once (filling
    the completion memo) and touches every other endpoint."""
    rng = random.Random(-1)
    return [hot_solve(rng, s) for s in range(HOT_STRUCTURES)] + [
        front_request(rng, kind, 0) for kind in FRONT_CYCLE[1:]]


def front_mix(seed: int, count: int) -> list[tuple[str, dict]]:
    """``count`` front-mix requests cycling through every endpoint."""
    rng = random.Random(seed)
    return [front_request(rng, FRONT_CYCLE[i % len(FRONT_CYCLE)], i // 6)
            for i in range(count)]


def solve_warmup() -> list[tuple[str, dict]]:
    """A few distinct /solve problems in words the measured stream never
    draws, so warming up leaves no memo entry the stream could hit."""
    return [("/solve", {"text": f"码头有 {7 + i} {noun}"})
            for i, noun in enumerate(["条船", "只鸭", "辆车", "本册"])]


# -- answer checks ------------------------------------------------------------

def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def _numbers(text: str) -> list[float]:
    out, digits = [], ""
    for char in text + " ":
        if char.isdigit() or (char == "." and digits):
            digits += char
        elif digits:
            out.append(float(digits))
            digits = ""
    return out


def check(endpoint: str, request: dict, response: dict) -> None:
    """Raise :class:`WrongAnswer` unless ``response`` answers ``request``."""
    if endpoint in ("/ground", "/extract", "/solve"):
        values = [q["magnitude"] for q in response["quantities"]]
        want = _numbers(request["text"])
        if values != want:
            raise WrongAnswer(f"{endpoint} quantities {values} != {want}")
        if endpoint == "/ground":
            units = [q["unit"] for q in response["quantities"]]
            template = next(t for t in GROUND_TEMPLATES
                            if _fills(t[0], request["text"]))
            if units != template[1]:
                raise WrongAnswer(f"/ground units {units} != {template[1]}")
        if endpoint == "/solve":
            answer = response["answer"]
            if answer is not None and not math.isfinite(answer):
                raise WrongAnswer(f"/solve answer {answer!r} is not finite")
            if not response["prompt"].startswith("task: mwp text:"):
                raise WrongAnswer(f"/solve prompt {response['prompt']!r}")
    elif endpoint == "/convert":
        factor = next(f for s, t, f in CONVERSIONS
                      if s == request["source"] and t == request["target"])
        want = request["value"] * factor
        if not _close(response["magnitude"], want):
            raise WrongAnswer(f"/convert {response['magnitude']} != {want}")
    elif endpoint == "/compare":
        factors = dict(u for group in COMPARABLE for u in group)
        si = [q["value"] * factors[q["unit"]] for q in request["quantities"]]
        if not all(_close(g, w) for g, w in zip(response["si_values"], si)):
            raise WrongAnswer(f"/compare {response['si_values']} != {si}")
        order = sorted(range(len(si)), key=lambda i: si[i], reverse=True)
        if [si[i] for i in response["ranking"]] != [si[i] for i in order]:
            raise WrongAnswer(f"/compare ranking {response['ranking']}")
    elif endpoint == "/dimension":
        want = next(v for body, v in DIMENSIONS if body == request)
        if response["dimension"]["vector"] != want:
            raise WrongAnswer(
                f"/dimension {response['dimension']['vector']} != {want}")
    else:
        raise WrongAnswer(f"no check for endpoint {endpoint}")


def _fills(template: str, text: str) -> bool:
    head = template.split("{}", 1)[0]
    tail = template.rsplit("{}", 1)[1]
    return text.startswith(head) and text.endswith(tail)
