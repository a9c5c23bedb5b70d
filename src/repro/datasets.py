"""Dataset schemas: the fixed, code-level knowledge of D1/D2/D3.

The paper's three IE tasks are defined by *schemas* that both the
synthetic generators (:mod:`repro.synth`) and the extraction system
(:mod:`repro.core.select`) must agree on: the named-entity vocabulary
of each dataset, and -- for D1 -- the 20 deterministic form faces with
their ~1369 labelled field descriptors (\u00a75.2.1).

This module is the single home of that knowledge and sits *below* both
consumers in the layering order (it imports only numpy), so ``core``
never reaches into ``repro.synth`` for it (lint rule ``LAYER001``).
The generators re-export these names under their historical paths.

Everything here is deterministic: the face templates are seeded by the
fixed ``_FACE_SEED``, so two processes always build identical schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The five annotated entity types of the D2 poster corpus.
D2_ENTITIES = (
    "event_title",
    "event_place",
    "event_time",
    "event_organizer",
    "event_description",
)

#: The six annotated entity types of the D3 real-estate flyer corpus.
D3_ENTITIES = (
    "broker_name",
    "broker_phone",
    "broker_email",
    "property_address",
    "property_size",
    "property_description",
)

D1_ENTITY_PREFIX = "d1_field"


_FACE_SEED = 0x1040
_N_FACES = 20
_TOTAL_FIELDS = 1369

_DESCRIPTOR_PHRASES = [
    "Wages salaries tips etc",
    "Taxable interest income",
    "Tax-exempt interest income",
    "Dividend income",
    "Taxable refunds of state taxes",
    "Alimony received",
    "Business income or loss",
    "Capital gain or loss",
    "Capital gain distributions",
    "Other gains or losses",
    "Total IRA distributions",
    "Taxable amount",
    "Total pensions and annuities",
    "Rents royalties partnerships",
    "Farm income or loss",
    "Unemployment compensation",
    "Social security benefits",
    "Other income",
    "Total income",
    "Reimbursed expenses",
    "Your IRA deduction",
    "Spouse IRA deduction",
    "Self-employment tax deduction",
    "Self-employed health insurance",
    "Keogh retirement plan",
    "Penalty on early withdrawal",
    "Alimony paid",
    "Adjusted gross income",
    "Standard deduction",
    "Itemized deductions",
    "Exemption amount",
    "Taxable income",
    "Tax amount",
    "Additional taxes",
    "Credit for child care",
    "Credit for the elderly",
    "Foreign tax credit",
    "General business credit",
    "Total credits",
    "Self-employment tax",
    "Alternative minimum tax",
    "Recapture taxes",
    "Household employment taxes",
    "Total tax",
    "Federal income tax withheld",
    "Estimated tax payments",
    "Earned income credit",
    "Amount paid with extension",
    "Excess social security",
    "Total payments",
    "Amount overpaid",
    "Amount to be refunded",
    "Applied to estimated tax",
    "Amount you owe",
    "Estimated tax penalty",
    "Medical and dental expenses",
    "State and local taxes",
    "Real estate taxes",
    "Personal property taxes",
    "Home mortgage interest",
    "Deductible points",
    "Investment interest",
    "Gifts by cash or check",
    "Gifts other than cash",
    "Carryover from prior year",
    "Casualty and theft losses",
    "Unreimbursed employee expenses",
    "Tax preparation fees",
    "Other miscellaneous deductions",
    "Gross receipts or sales",
    "Returns and allowances",
    "Cost of goods sold",
    "Gross profit",
    "Advertising expense",
    "Car and truck expenses",
    "Commissions and fees",
    "Depletion deduction",
    "Depreciation deduction",
    "Employee benefit programs",
    "Insurance other than health",
    "Mortgage interest paid",
    "Legal and professional services",
    "Office expense",
    "Pension and profit sharing",
    "Rent or lease payments",
    "Repairs and maintenance",
    "Supplies expense",
    "Taxes and licenses",
    "Travel expense",
    "Meals and entertainment",
    "Utilities expense",
    "Wages paid",
]

_VALUE_KINDS = ("money", "money", "money", "ssn", "name", "date", "check")

_FORM_TITLES = [
    "Form 1040 U.S. Individual Income Tax Return",
    "Schedule A Itemized Deductions",
    "Schedule B Interest and Dividend Income",
    "Schedule C Profit or Loss From Business",
    "Schedule D Capital Gains and Losses",
    "Schedule E Supplemental Income and Loss",
    "Schedule F Farm Income and Expenses",
    "Schedule R Credit for the Elderly",
    "Schedule SE Self-Employment Tax",
    "Form 2106 Employee Business Expenses",
    "Form 2441 Child and Dependent Care Expenses",
    "Form 3800 General Business Credit",
    "Form 4136 Credit for Federal Tax on Fuels",
    "Form 4255 Recapture of Investment Credit",
    "Form 4562 Depreciation and Amortization",
    "Form 4684 Casualties and Thefts",
    "Form 4797 Sales of Business Property",
    "Form 6251 Alternative Minimum Tax",
    "Form 8283 Noncash Charitable Contributions",
    "Form 8606 Nondeductible IRA Contributions",
]


@dataclass(frozen=True)
class FormField:
    """One field of a form face template."""

    entity_type: str
    descriptor: str
    value_kind: str
    column: int  # 0 = left, 1 = right
    row: int


@dataclass(frozen=True)
class FormFace:
    """A deterministic form template."""

    face_id: int
    title: str
    fields: Tuple[FormField, ...]


def _fields_per_face() -> List[int]:
    base = _TOTAL_FIELDS // _N_FACES
    counts = [base] * _N_FACES
    for i in range(_TOTAL_FIELDS - base * _N_FACES):
        counts[i] += 1
    return counts


def build_faces() -> List[FormFace]:
    """The 20 deterministic form faces (seeded, stable across runs)."""
    faces: List[FormFace] = []
    counts = _fields_per_face()
    for face_id in range(_N_FACES):
        rng = np.random.default_rng((_FACE_SEED, face_id))
        n_fields = counts[face_id]
        order = rng.permutation(len(_DESCRIPTOR_PHRASES))
        fields: List[FormField] = []
        rows_per_col = (n_fields + 1) // 2
        for k in range(n_fields):
            phrase = _DESCRIPTOR_PHRASES[int(order[k % len(order)])]
            line_no = k + 1
            descriptor = f"{line_no} {phrase}"
            kind = _VALUE_KINDS[int(rng.integers(len(_VALUE_KINDS)))]
            fields.append(
                FormField(
                    entity_type=f"{D1_ENTITY_PREFIX}:{face_id:02d}:{line_no:03d}",
                    descriptor=descriptor,
                    value_kind=kind,
                    column=0 if k < rows_per_col else 1,
                    row=k if k < rows_per_col else k - rows_per_col,
                )
            )
        faces.append(FormFace(face_id, _FORM_TITLES[face_id], tuple(fields)))
    return faces


#: Per-process memo: build_faces is deterministic, so a forked worker
#: that fills its own copy gets the same faces as the parent.
_FACES_CACHE: Optional[List[FormFace]] = None


def form_faces() -> List[FormFace]:
    global _FACES_CACHE
    if _FACES_CACHE is None:
        _FACES_CACHE = build_faces()
    return _FACES_CACHE


def all_field_descriptors() -> Dict[str, str]:
    """entity_type → descriptor across all faces (the paper's list of
    1369 form fields)."""
    return {f.entity_type: f.descriptor for face in form_faces() for f in face.fields}


def entity_vocabulary(dataset: str) -> Sequence[str]:
    """The semantic vocabulary of each IE task."""
    dataset = dataset.upper()
    if dataset == "D2":
        return D2_ENTITIES
    if dataset == "D3":
        return D3_ENTITIES
    if dataset == "D1":
        return tuple(all_field_descriptors())
    raise ValueError(f"unknown dataset {dataset!r}")
