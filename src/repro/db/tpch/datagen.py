"""dbgen-style TPC-H data generation.

Follows the TPC-H specification's shapes and value domains closely enough
that each query's predicate selectivity resembles the official population:
the standard nation/region hierarchy, dbgen's date arithmetic (shipdate =
orderdate + 1..121 days etc.), brand/type/container vocabularies, and the
comment keywords that Q9/Q13 predicate on.  Row counts scale with the scale
factor exactly as in dbgen (lineitem ≈ 6 M × SF).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from repro.db.catalog import date_to_int
from repro.db.storage import Database
from repro.db.tpch.schema import TPCH_SCHEMAS
from repro.fs.filesystem import FileSystem

__all__ = ["generate_tables", "load_tpch", "TPCH_NATIONS"]

# name -> region key (standard TPC-H nation list)
TPCH_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

TYPE_SYLL_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_SYLL_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_SYLL_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
CONTAINER_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINER_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "hunter", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
    "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
    "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
    "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
    "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
    "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
    "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat",
    "white", "yellow",
]
COMMENT_WORDS = (
    "carefully final deposits furiously ironic packages sleep quickly "
    "regular accounts above the slyly express requests blithely bold pinto "
    "beans haggle silent foxes among even theodolites"
).split()

START_DATE = date_to_int("1992-01-01")
END_ORDER_DATE = date_to_int("1998-08-02")
CURRENT_DATE = date_to_int("1995-06-17")


_WORDS = len(COMMENT_WORDS)
_WORD_BITS = _WORDS.bit_length()


# Every draw below is the stdlib's own arithmetic written out in line: an
# integer in [0, n) is ``Random._randbelow_with_getrandbits`` -- draw
# ``getrandbits(n.bit_length())`` until it falls below n -- and
# ``uniform(a, b)`` is ``a + (b - a) * random()``.  The generator therefore
# makes the same C-level calls, in the same order and with the same widths,
# as ``randint``/``randrange``/``choice``/``uniform`` would, without their
# four Python frames per draw; the tables are a function of that call
# sequence (tests/db/test_tpch_datagen.py pins them by digest).

def _comment(bits: Callable[[int], int], min_words: int = 3, max_words: int = 8) -> str:
    span = max_words - min_words + 1
    k = span.bit_length()
    n = bits(k)
    while n >= span:
        n = bits(k)
    words = []
    for _ in range(min_words + n):
        r = bits(_WORD_BITS)
        while r >= _WORDS:
            r = bits(_WORD_BITS)
        words.append(COMMENT_WORDS[r])
    return " ".join(words)


def generate_tables(scale_factor: float, seed: int = 20160618) -> Dict[str, List[Tuple[Any, ...]]]:
    """Generate every TPC-H table at the given scale factor."""
    if scale_factor <= 0:
        raise ValueError("scale factor must be positive")
    rng = random.Random(seed)
    bits = rng.getrandbits
    rand = rng.random
    sf = scale_factor

    def below(n: int) -> int:
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def phone(nation_key: int) -> str:
        return "%02d-%03d-%03d-%04d" % (
            10 + nation_key, 100 + below(900), 100 + below(900), 1000 + below(9000),
        )

    num_supplier = max(10, round(10_000 * sf))
    num_customer = max(30, round(150_000 * sf))
    num_part = max(20, round(200_000 * sf))
    num_orders = max(50, round(1_500_000 * sf))

    region = [
        (key, name, _comment(bits)) for key, name in enumerate(REGIONS)
    ]
    nation = [
        (key, name, region_key, _comment(bits))
        for key, (name, region_key) in enumerate(TPCH_NATIONS)
    ]

    acctbal_span = 9999.99 - -999.99
    supplier = []
    for key in range(1, num_supplier + 1):
        nation_key = below(25)
        comment = _comment(bits)
        # dbgen plants "Customer...Complaints" in ~0.05% of supplier comments
        # (Q16 excludes those suppliers).
        if rand() < 0.0005:
            comment = "Customer " + comment + " Complaints"
        supplier.append((
            key, "Supplier#%09d" % key, _comment(bits, 2, 4), nation_key,
            phone(nation_key), round(-999.99 + acctbal_span * rand(), 2),
            comment,
        ))

    customer = []
    for key in range(1, num_customer + 1):
        nation_key = below(25)
        customer.append((
            key, "Customer#%09d" % key, _comment(bits, 2, 4), nation_key,
            phone(nation_key), round(-999.99 + acctbal_span * rand(), 2),
            SEGMENTS[below(len(SEGMENTS))], _comment(bits),
        ))

    part = []
    for key in range(1, num_part + 1):
        name = " ".join(rng.sample(COLORS, 5))
        mfgr_id = 1 + below(5)
        brand = "Brand#%d%d" % (mfgr_id, 1 + below(5))
        ptype = "%s %s %s" % (
            TYPE_SYLL_1[below(len(TYPE_SYLL_1))],
            TYPE_SYLL_2[below(len(TYPE_SYLL_2))],
            TYPE_SYLL_3[below(len(TYPE_SYLL_3))],
        )
        container = "%s %s" % (CONTAINER_1[below(len(CONTAINER_1))],
                               CONTAINER_2[below(len(CONTAINER_2))])
        retail = round(90000 + (key % 200001) / 10 + 100 * (key % 1000), 2) / 100
        part.append((
            key, name, "Manufacturer#%d" % mfgr_id, brand, ptype,
            1 + below(50), container, retail, _comment(bits),
        ))

    partsupp = []
    for p_key in range(1, num_part + 1):
        for i in range(4):
            s_key = ((p_key + i * (num_supplier // 4 + 1)) % num_supplier) + 1
            partsupp.append((
                p_key, s_key, 1 + below(9999),
                round(1.0 + (1000.0 - 1.0) * rand(), 2), _comment(bits),
            ))

    orders = []
    lineitem = []
    date_span = END_ORDER_DATE - START_DATE
    num_clerks = max(1, round(1000 * sf))
    for o_key in range(1, num_orders + 1):
        cust = 1 + below(num_customer)
        # dbgen skips a third of customers (Q13's zero-order customers).
        if cust % 3 == 0:
            cust = max(1, cust - 1)
        # Order keys are assigned roughly chronologically (as in operational
        # systems): o_orderdate grows with o_orderkey plus +-15 days jitter.
        # This gives date predicates the low *page*-fraction selectivity the
        # paper's planner heuristic measures (see DESIGN.md / EXPERIMENTS.md).
        base_date = START_DATE + (o_key - 1) * date_span // max(1, num_orders - 1)
        order_date = min(END_ORDER_DATE, max(START_DATE, base_date - 15 + below(31)))
        priority = PRIORITIES[below(len(PRIORITIES))]
        comment = _comment(bits)
        if rand() < 0.01:
            comment = comment + " special requests " + _comment(bits, 1, 2)
        num_lines = 1 + below(7)
        total = 0.0
        all_f = True
        any_f = False
        for line_no in range(1, num_lines + 1):
            p_key = 1 + below(num_part)
            s_key = ((p_key + below(4) * (num_supplier // 4 + 1)) % num_supplier) + 1
            quantity = float(1 + below(50))
            retail = part[p_key - 1][7]
            extended = round(quantity * retail, 2)
            discount = below(11) / 100.0
            tax = below(9) / 100.0
            ship_date = order_date + 1 + below(121)
            commit_date = order_date + 30 + below(61)
            receipt_date = ship_date + 1 + below(30)
            if receipt_date <= CURRENT_DATE:
                return_flag = "RA"[below(2)]
            else:
                return_flag = "N"
            line_status = "F" if ship_date <= CURRENT_DATE else "O"
            all_f = all_f and line_status == "F"
            any_f = any_f or line_status == "F"
            total += extended * (1 + tax) * (1 - discount)
            lineitem.append((
                o_key, p_key, s_key, line_no, quantity, extended, discount, tax,
                return_flag, line_status, ship_date, commit_date, receipt_date,
                SHIP_INSTRUCT[below(len(SHIP_INSTRUCT))],
                SHIP_MODES[below(len(SHIP_MODES))], _comment(bits),
            ))
        status = "F" if all_f else ("P" if any_f else "O")
        orders.append((
            o_key, cust, status, round(total, 2), order_date, priority,
            "Clerk#%09d" % (1 + below(num_clerks)),
            0, comment,
        ))

    return {
        "region": region,
        "nation": nation,
        "supplier": supplier,
        "customer": customer,
        "part": part,
        "partsupp": partsupp,
        "orders": orders,
        "lineitem": lineitem,
    }


def load_tpch(fs: FileSystem, scale_factor: float, seed: int = 20160618) -> Database:
    """Generate and install all TPC-H tables onto the device filesystem."""
    data = generate_tables(scale_factor, seed)
    db = Database(fs)
    for name in ("region", "nation", "supplier", "customer", "part",
                 "partsupp", "orders", "lineitem"):
        db.load_table(TPCH_SCHEMAS[name], data[name])
    return db
