"""Synthetic fixed-format listing websites (Table 2).

The paper populates its holdout corpus by querying public websites —
irs.gov (D1), allevents.in and dl.acm.org (D2), fsbo.com and
homesbyowner.com (D3) — and running a custom web wrapper over the
fixed-format result pages.  These builders emit the same *kind* of
pages: every record rendered with an identical tag/class skeleton, so
the wrapper of :mod:`repro.html.wrapper` can extract (entity, text)
tuples exactly as the paper's pipeline does.

Each site function returns serialised HTML (a string): the holdout
builder parses it back, exercising the full scrape→parse→wrap path.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.datasets import form_faces
from repro.html import WrapperRule, el
from repro.synth.providers import FakeProvider


def irs_field_tables(seed: int = 0) -> str:
    """irs.gov-style page: 20 tables of (field identifier, descriptor).

    §5.2.1: "Holdout corpus for the first IE task contained 20 tables,
    each with two columns, an identifier of the named entity to be
    extracted and its corresponding field descriptor."
    """
    body = el("body")
    for face in form_faces():
        table = el("table", class_="field-table")
        caption = el("caption", face.title)
        table.append(caption)
        header = el("tr", el("th", "Field"), el("th", "Descriptor"))
        table.append(header)
        for field in face.fields:
            row = el(
                "tr",
                el("td", field.entity_type, class_="field-id"),
                el("td", field.descriptor, class_="field-descriptor"),
                class_="field-row",
            )
            table.append(row)
        body.append(table)
    page = el("html", el("head", el("title", "IRS 1988 1040 Package Field Index")), body)
    return page.to_html()


IRS_WRAPPER = WrapperRule(
    record_selector=("tr", "field-row"),
    field_selectors={
        "field_id": ("td", "field-id"),
        "descriptor": ("td", "field-descriptor"),
    },
)


def allevents_listing(seed: int, n_results: int = 250) -> str:
    """allevents.in-style results page (query: NY, filter: 04/01-05/31)."""
    rng = np.random.default_rng((seed, 0xAE))
    fake = FakeProvider(rng)
    body = el("body", el("h1", "Events in New York - April and May"))
    for _ in range(n_results):
        card = el("div", class_="event-card")
        card.append(el("h2", fake.event_title(), class_="event-title"))
        card.append(el("span", fake.event_time(), class_="event-time"))
        card.append(el("span", f"{fake.venue()}, {fake.full_address()}", class_="event-place"))
        card.append(el("span", fake.organizer(), class_="event-organizer"))
        card.append(el("p", fake.event_description(2), class_="event-description"))
        body.append(card)
    return el("html", body).to_html()


ALLEVENTS_WRAPPER = WrapperRule(
    record_selector=("div", "event-card"),
    field_selectors={
        "event_title": ("h2", "event-title"),
        "event_time": ("span", "event-time"),
        "event_place": ("span", "event-place"),
        "event_organizer": ("span", "event-organizer"),
        "event_description": ("p", "event-description"),
    },
)


def acm_talk_listing(seed: int, n_results: int = 250) -> str:
    """dl.acm.org-style talk index (query: Talks, sorted by views)."""
    rng = np.random.default_rng((seed, 0xACB))
    fake = FakeProvider(rng)
    body = el("body", el("h1", "Talks - sorted by views"))
    for i in range(n_results):
        item = el("li", class_="talk-item")
        title = f"{fake.event_title()}: a {fake.choice(['keynote', 'tutorial', 'lecture', 'seminar'])}"
        item.append(el("a", title, class_="talk-title"))
        speaker = fake.person_name()
        item.append(el("span", f"presented by {speaker}", class_="talk-speaker"))
        item.append(el("span", fake.event_time(), class_="talk-time"))
        item.append(el("span", f"{fake.venue()}, {fake.city()}", class_="talk-venue"))
        item.append(el("p", fake.event_description(1), class_="talk-abstract"))
        body.append(item)
    return el("html", body).to_html()


ACM_WRAPPER = WrapperRule(
    record_selector=("li", "talk-item"),
    field_selectors={
        "event_title": ("a", "talk-title"),
        "event_organizer": ("span", "talk-speaker"),
        "event_time": ("span", "talk-time"),
        "event_place": ("span", "talk-venue"),
        "event_description": ("p", "talk-abstract"),
    },
)


def fsbo_listing(seed: int, n_results: int = 100) -> str:
    """fsbo.com-style property listing page (query: NY)."""
    rng = np.random.default_rng((seed, 0xF5B0))
    fake = FakeProvider(rng)
    body = el("body", el("h1", "Properties for sale by owner - New York"))
    for _ in range(n_results):
        card = el("div", class_="listing")
        card.append(el("h2", fake.full_address(), class_="listing-address"))
        card.append(el("span", fake.property_size(), class_="listing-size"))
        card.append(el("span", fake.property_price(), class_="listing-price"))
        name = fake.person_name(with_prefix_p=0.05)
        card.append(el("span", name, class_="listing-broker"))
        card.append(el("span", fake.phone(), class_="listing-phone"))
        card.append(el("span", fake.email(name), class_="listing-email"))
        card.append(el("p", fake.property_description(2), class_="listing-description"))
        body.append(card)
    return el("html", body).to_html()


def homesbyowner_listing(seed: int, n_results: int = 100) -> str:
    """homesbyowner.com-style page — same fields, different skeleton."""
    rng = np.random.default_rng((seed, 0xB0E))
    fake = FakeProvider(rng)
    body = el("body", el("h1", "Homes by owner - New York"))
    for _ in range(n_results):
        row = el("tr", class_="home-row")
        row.append(el("td", fake.full_address(), class_="home-address"))
        row.append(el("td", fake.property_size(), class_="home-size"))
        name = fake.person_name(with_prefix_p=0.05)
        row.append(el("td", name, class_="home-owner"))
        row.append(el("td", fake.phone(), class_="home-phone"))
        row.append(el("td", fake.email(name), class_="home-email"))
        row.append(el("td", fake.property_description(1), class_="home-description"))
        body.append(row)
    table = el("table", class_="homes")
    table.children = body.children[1:]
    body.children = [body.children[0], table]
    return el("html", body).to_html()


FSBO_WRAPPER = WrapperRule(
    record_selector=("div", "listing"),
    field_selectors={
        "property_address": ("h2", "listing-address"),
        "property_size": ("span", "listing-size"),
        "broker_name": ("span", "listing-broker"),
        "broker_phone": ("span", "listing-phone"),
        "broker_email": ("span", "listing-email"),
        "property_description": ("p", "listing-description"),
    },
)

HOMESBYOWNER_WRAPPER = WrapperRule(
    record_selector=("tr", "home-row"),
    field_selectors={
        "property_address": ("td", "home-address"),
        "property_size": ("td", "home-size"),
        "broker_name": ("td", "home-owner"),
        "broker_phone": ("td", "home-phone"),
        "broker_email": ("td", "home-email"),
        "property_description": ("td", "home-description"),
    },
)

#: Table 2 of the paper, as code: dataset → (site builder, wrapper, query note).
HOLDOUT_SOURCES: Dict[str, List] = {
    "D1": [(irs_field_tables, IRS_WRAPPER, "irs.gov | 1988 | 1040")],
    "D2": [
        (allevents_listing, ALLEVENTS_WRAPPER, "allevents.in | NY | 04/01-05/31"),
        (acm_talk_listing, ACM_WRAPPER, "dl.acm.org | Talks | sorted by views"),
    ],
    "D3": [
        (fsbo_listing, FSBO_WRAPPER, "fsbo.com | NY | none"),
        (homesbyowner_listing, HOMESBYOWNER_WRAPPER, "homesbyowner.com | NY | none"),
    ],
}
